"""One shared-nothing shard of the serving runtime.

A :class:`ShardWorker` owns everything request-path state used to live
directly in the process-wide :class:`~repro.serve.service.ForecastService`
— the LRU model registry, the micro-batch queue, the compiled-engine
plan caches and the drain thread.  Workers share *nothing* mutable:
they read the same artifact directory (bundles are immutable published
files) but never touch each other's locks, queues or caches, so N
workers drain N queues on N threads with zero cross-shard coordination.
That independence is also what makes the scale story honest — adding a
worker adds a full serving pipeline, not a lane behind a shared lock.
"""

from __future__ import annotations

from ..serve.service import ForecastService

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard's :class:`ForecastService`.

    Parameters
    ----------
    shard:
        This worker's label on the ring (``0 .. workers-1``).
    artifact_dir:
        The shared (read-only) bundle directory; every worker indexes
        the same artifacts, so any worker can serve any model key.
    **service_kwargs:
        Forwarded to :class:`ForecastService` (``max_models``,
        ``max_batch``).
    """

    def __init__(self, shard: int, artifact_dir: str, **service_kwargs):
        if shard < 0:
            raise ValueError("shard labels must be non-negative")
        self.shard = int(shard)
        self.service = ForecastService(artifact_dir, **service_kwargs)

    def close(self) -> None:
        self.service.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardWorker(shard={self.shard})"
