"""Consistent-hash router over a fleet of shared-nothing workers.

:class:`ShardRouter` is the one deployment topology: ``serve``,
``stream`` and ``gateway`` all run behind it, with one worker unless
``--workers`` asks for more.  It presents the same surface as one
:class:`~repro.serve.service.ForecastService` — ``submit``/``predict``,
key resolution, stats snapshot, pause/resume/close — while fanning the
work out to per-shard :class:`~repro.shard.worker.ShardWorker` queues.
Request routing is by *model key*: all traffic for one ``(dataset,
horizon)`` bundle lands on the shard that owns it, so that bundle is
resident (and its compiled plan warm) on exactly one LRU instead of
being duplicated N times.  The streaming layer routes by *stream key*
instead (see :mod:`repro.shard.stream`); both go through the same
:class:`~repro.shard.ring.HashRing`, so assignment is deterministic
and stable across processes.

Because the student forward is batch-independent and every worker loads
the identical immutable bundle, which worker answers a request can
never change the forecast — sharding moves *where* the work happens,
bitwise never *what* it computes.  ``snapshot()`` merges per-shard
counters into one cluster view, so monitoring reads a sharded
deployment exactly like a single service.
"""

from __future__ import annotations

from ..serve.service import ServiceStats, scan_artifact_dir
from .ring import DEFAULT_VNODES, HashRing
from .worker import ShardWorker

__all__ = ["ShardRouter"]


class ShardRouter:
    """Route requests across ``workers`` shared-nothing shards.

    Parameters
    ----------
    artifact_dir:
        Bundle directory shared (read-only) by every worker.
    workers:
        Shard count.  ``1`` (the default deployment) is a one-shard
        ring: every key routes to shard 0 without hashing.
    vnodes:
        Virtual nodes per shard on the ring (balance knob).
    **service_kwargs:
        Forwarded to every worker's :class:`ForecastService`.
    """

    def __init__(self, artifact_dir: str, workers: int = 1,
                 vnodes: int = DEFAULT_VNODES, **service_kwargs):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.artifact_dir = artifact_dir
        self.ring = HashRing(workers, vnodes=vnodes)
        self.workers = [ShardWorker(shard, artifact_dir, **service_kwargs)
                        for shard in range(int(workers))]
        self._paths = scan_artifact_dir(artifact_dir)

    # ------------------------------------------------------------------
    # registry (ForecastService surface)
    # ------------------------------------------------------------------
    def scan(self) -> dict[tuple[str, int], str]:
        """Re-index the artifact directory on the router and all workers."""
        for worker in self.workers:
            worker.service.scan()
        self._paths = scan_artifact_dir(self.artifact_dir)
        return dict(self._paths)

    def keys(self) -> list[tuple[str, int]]:
        return list(self._paths)

    def path_for(self, key: tuple[str, int]) -> str:
        path = self._paths.get(key)
        if path is None:
            raise KeyError(f"no artifact registered for {key!r}")
        return path

    def resolve_key(self, dataset: str | None = None,
                    horizon: int | None = None) -> tuple[str, int]:
        # Any worker resolves identically (same directory scan); asking
        # worker 0 keeps the error messages of the single-service path.
        return self.workers[0].service.resolve_key(dataset, horizon)

    def config_for(self, key: tuple[str, int]):
        return self.worker_for_model(key).service.config_for(key)

    def worker_for_model(self, key: tuple[str, int]) -> ShardWorker:
        """The worker owning a model key's request traffic."""
        return self.workers[self.ring.shard_for(key)]

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, history, dataset: str | None = None,
               horizon: int | None = None, raw_values: bool = False):
        """Enqueue one window on the owning shard; returns its Future."""
        key = self.resolve_key(dataset, horizon)
        return self.worker_for_model(key).service.submit(
            history, dataset=key[0], horizon=key[1], raw_values=raw_values)

    def predict(self, history, dataset: str | None = None,
                horizon: int | None = None, raw_values: bool = False):
        """Blocking single-window convenience around :meth:`submit`."""
        return self.submit(history, dataset=dataset, horizon=horizon,
                           raw_values=raw_values).result()

    # ------------------------------------------------------------------
    # cluster view
    # ------------------------------------------------------------------
    def snapshot(self) -> ServiceStats:
        """Per-shard counters merged into one cluster ``ServiceStats``."""
        return ServiceStats.merge(
            [worker.service.snapshot() for worker in self.workers])

    def queue_depth(self) -> int:
        """Cluster-wide queued-request gauge (sum over shards)."""
        return sum(worker.service.queue_depth() for worker in self.workers)

    def in_flight(self) -> int:
        """Cluster-wide in-flight-request gauge (sum over shards)."""
        return sum(worker.service.in_flight() for worker in self.workers)

    def pressure(self) -> tuple[int, int]:
        """Summed ``(queue_depth, in_flight)`` across shards.

        Each shard's pair is read atomically; the sum interleaves with
        other shards' drains, which only shifts load between the two
        gauges — the total the admission layer compares against its
        bound never double-counts a request.
        """
        depth = flight = 0
        for worker in self.workers:
            d, f = worker.service.pressure()
            depth += d
            flight += f
        return depth, flight

    def shard_snapshots(self) -> dict[int, ServiceStats]:
        """Unmerged per-shard counters (skew debugging, benchmarks)."""
        return {worker.shard: worker.service.snapshot()
                for worker in self.workers}

    def restore_stats(self, payload: dict) -> None:
        """Fold recovered cluster counters in (onto shard 0).

        Recovered totals are cluster-cumulative; attributing them to
        shard 0 keeps the merged view continuous across a crash without
        inventing a per-shard split the snapshot may not record.
        """
        self.workers[0].service.restore_stats(payload)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def pause(self) -> None:
        for worker in self.workers:
            worker.service.pause()

    def resume(self) -> None:
        for worker in self.workers:
            worker.service.resume()

    def close(self) -> None:
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
