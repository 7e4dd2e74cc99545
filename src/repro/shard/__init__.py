"""``repro.shard`` — the deployment topology: shared-nothing shard
workers behind a hash-ring router, one worker by default.

Four pieces, layered:

* :mod:`repro.shard.ring` — :class:`HashRing`, a deterministic
  consistent-hash ring with virtual nodes (stable ``key → shard``,
  minimal movement on resize).
* :mod:`repro.shard.worker` — :class:`ShardWorker`, one shard's
  self-contained serving pipeline (own LRU registry, micro-batch
  queue, compiled-plan caches, drain thread).
* :mod:`repro.shard.router` — :class:`ShardRouter`, the
  ``ForecastService``-shaped front door that fans requests to workers
  and merges their stats into a cluster view.
* :mod:`repro.shard.stream` — :class:`ShardedStreamingForecaster`,
  the streaming front end routing ticks by stream key with the bitwise
  replay-parity contract intact.

Per-shard durability (shard-labeled snapshots/WALs, staged recovery,
resharding) lives in :mod:`repro.durable.shard`.
"""

from .ring import DEFAULT_VNODES, HashRing
from .router import ShardRouter
from .stream import ShardedStreamingForecaster
from .worker import ShardWorker

__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "ShardRouter",
    "ShardWorker",
    "ShardedStreamingForecaster",
]
