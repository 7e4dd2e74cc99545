"""Sharded streaming front end: route ticks, keep the parity contract.

:class:`ShardedStreamingForecaster` looks like one
:class:`~repro.stream.forecaster.StreamingForecaster` but owns N of
them — one per :class:`~repro.shard.worker.ShardWorker`, each with its
own ring buffers, ingest lock, sequence counter and micro-batch queue.
Ticks route by stream key through the router's
:class:`~repro.shard.ring.HashRing`, so a key's entire history lives on
exactly one shard and per-key ordering needs no cross-shard locking.
Drain is naturally parallel: each shard's service thread coalesces and
executes its own batches, so N workers give N concurrent student
forwards without sharing a lock.

**Why sharding cannot change a forecast.**  The per-worker engine is
the unmodified :class:`StreamingForecaster`; routing only decides
*which* instance ingests a tick.  A key's window content and cadence
boundaries depend only on that key's own ticks — which all land on one
shard, in arrival order — and the student forward is batch-independent,
so what other keys share the shard's batches is value-irrelevant.  Hence an N-worker replay is **bitwise identical** to
the 1-worker run, which is exactly what ``--verify`` asserts end to
end.  With one worker (the default deployment) this front end is the
whole topology: the ring returns shard 0 without hashing.

**Routing once per series.**  The front end remembers the shard of
every key a shard has accepted, so a series' ticks skip the ring's
JSON encoding and hashing after its first one.  The ring never changes
under a live front end, so the map is a pure cache: each entry equals
what the ring would answer, and a race between threads can only repeat
a lookup.  It lives here rather than in the ring so that only accepted
keys are remembered — a flood of refused series names costs no memory.
"""

from __future__ import annotations

from dataclasses import fields

from ..stream.forecaster import StreamingForecaster, StreamStats
from .router import ShardRouter

__all__ = ["ShardedStreamingForecaster"]


class ShardedStreamingForecaster:
    """Per-key routing over per-shard :class:`StreamingForecaster`\\ s.

    Parameters
    ----------
    router:
        The :class:`ShardRouter` whose workers host the shards.  The
        router is adopted, not copied — ``close()`` closes it.
    dataset / horizon:
        Model registry key, resolved like :class:`StreamingForecaster`.
    **forecaster_kwargs:
        Forwarded verbatim to every per-shard
        :class:`StreamingForecaster` (cadence, gap policy, ...), so
        all shards run the identical policy.
    """

    def __init__(self, router: ShardRouter, dataset: str | None = None,
                 horizon: int | None = None, **forecaster_kwargs):
        self.router = router
        #: ``key → shard index`` for keys a shard has accepted; ``drop``
        #: and ``clear`` remove entries.
        self._routes: dict = {}
        self.shards: list[StreamingForecaster] = []
        for worker in router.workers:
            self.shards.append(StreamingForecaster(
                worker.service, dataset, horizon, **forecaster_kwargs))
        template = self.shards[0]
        self.model_key = template.model_key
        self.input_len = template.input_len
        self.horizon_len = template.horizon_len
        self.num_variables = template.num_variables
        self.cadence = template.cadence
        self.raw_values = template.raw_values

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, key) -> int:
        """Ring assignment of a stream key (stable across processes)."""
        shard = self._routes.get(key)
        return self.router.ring.shard_for(key) if shard is None else shard

    def _owner(self, key) -> StreamingForecaster:
        return self.shards[self.shard_for(key)]

    # ------------------------------------------------------------------
    # StreamingForecaster surface
    # ------------------------------------------------------------------
    def append(self, key, timestamp, values):
        """Ingest one tick on the owning shard (same contract as
        :meth:`StreamingForecaster.append`)."""
        shard = self._routes.get(key)
        if shard is not None:
            return self.shards[shard].append(key, timestamp, values)
        shard = self.router.ring.shard_for(key)
        future = self.shards[shard].append(key, timestamp, values)
        # Only once the shard accepted the tick: a refused first tick
        # leaves no entry behind.
        self._routes[key] = shard
        return future

    def forecast(self, key):
        return self._owner(key).forecast(key)

    def latest(self, key, wait: bool = True):
        return self._owner(key).latest(key, wait=wait)

    def state(self, key):
        return self._owner(key).state(key)

    def drop(self, key) -> None:
        self._owner(key).drop(key)
        self._routes.pop(key, None)

    def keys(self) -> list:
        found = []
        for shard in self.shards:
            found.extend(shard.keys())
        return found

    @property
    def service(self) -> ShardRouter:
        """The cluster-facing service surface (the router)."""
        return self.router

    @property
    def seq(self) -> int:
        """Total accepted ticks across all shards.

        Per-shard WAL sequences stay independent (each shard logs its
        own ticks); the sum is the cluster-level ingest counter.
        """
        return sum(shard.seq for shard in self.shards)

    @property
    def interval(self) -> float:
        return self.shards[0].interval

    def durable_config(self) -> dict:
        """Identity + policy knobs (uniform across shards by construction)."""
        return self.shards[0].durable_config()

    # ------------------------------------------------------------------
    # cluster view
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged stream + service counters for the whole cluster.

        Reads like one :meth:`StreamingForecaster.snapshot` (same keys,
        summed counters) with a ``workers`` field added; per-shard
        breakdowns come from :meth:`shard_snapshots` when skew matters.
        """
        names = [field.name for field in fields(StreamStats)]
        stream = dict.fromkeys(names + ["seq", "series"], 0)
        for shard in self.shards:
            part = shard.snapshot()["stream"]
            for name in stream:
                stream[name] += part[name]
        stream["workers"] = len(self.shards)
        return {"stream": stream,
                "service": self.router.snapshot().as_dict()}

    def shard_snapshots(self) -> dict[int, dict]:
        """Unmerged per-shard snapshots keyed by shard label."""
        return {index: shard.snapshot()
                for index, shard in enumerate(self.shards)}

    def clear(self) -> None:
        """Fail-closed wipe of every shard (recovery uses this)."""
        for shard in self.shards:
            shard.clear()
        self._routes.clear()

    def restore_from(self, directory: str, *, replay_wal: bool = True,
                     strict_wal: bool = True, recoverer=None):
        """Recover the whole cluster from ``directory``'s chains.

        Runs a :class:`repro.durable.shard.ShardedRecoverer` (pass your
        own via ``recoverer`` to inspect stages afterwards); handles
        resharding when the directory was written by a different worker
        count.  Raises :class:`repro.durable.recover.RecoveryError`
        unless recovery reaches ``succeeded``.
        """
        from ..durable.recover import RecoveryError
        from ..durable.shard import ShardedRecoverer

        if recoverer is None:
            recoverer = ShardedRecoverer()
        state = recoverer.recover(directory, self, replay_wal=replay_wal,
                                  strict_wal=strict_wal)
        if state.failure_reason is not None:
            raise RecoveryError(state)
        return state

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.router.close()

    def __enter__(self) -> "ShardedStreamingForecaster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
