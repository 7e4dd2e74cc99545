"""The snapshotter and the recoverer of a streaming cluster.

Every deployment is a :class:`~repro.shard.stream.ShardedStreamingForecaster`
(one worker by default), and each of its shards checkpoints
independently — a chain of ``snapshot-{shard}-{seq}.npz`` plus the
``wal-{shard}-{seq}.log`` segments after it, in one shared directory,
written by one :class:`~repro.durable.snapshot.StreamSnapshotter` per
shard (:class:`ShardedSnapshotter` attaches them all).  Because every
key lives on exactly one shard, the chains are disjoint and a shard
never waits on another to checkpoint.

:class:`ShardedRecoverer` restores the whole N-shard universe with a
staged, fail-closed contract (:mod:`repro.durable.recover`): every
source chain is read and verified *before* any live state is touched,
and any failure once importing began clears **all** target shards —
half a cluster would silently break replay parity, which is strictly
worse than an empty one.

Resharding ``N → M`` falls out of the routing: when the source shard
labels do not match the target ring — or any recovered key now hashes
to a different shard — the recoverer routes every verified entry
through the target ring instead of importing chains one-to-one, then
replays all WAL ticks through the sharded front end (each tick lands
on its new owner); the CLI's re-anchor (``checkpoint`` then
:meth:`ShardedSnapshotter.prune_foreign`) then removes the superseded
chains.  A chain whose file names carry no shard label
(``snapshot-{seq}.npz``) is refused in the *reading* stage: this build
reads only the names it writes.
"""

from __future__ import annotations

import os

from .faults import crashpoint
from .recover import (
    ChainVerificationError,
    RecoveryStages,
    RecoveryState,
)
from .snapshot import StreamSnapshotter
from .wal import RETIRED_LAYOUT_READER, chain_files, chain_labels

__all__ = ["ShardedSnapshotter", "ShardedRecoverer"]


class ShardedSnapshotter:
    """One :class:`StreamSnapshotter` per shard, attached together.

    The only snapshotter: a 1-worker cluster writes shard 0's chain.

    Forwards the constructor knobs (``every``/``wal``/``fsync``/
    ``keep``) verbatim to each per-shard snapshotter; shard ``i``'s
    files carry label ``i``.  ``checkpoint()`` snapshots every shard
    (each under its own forecaster lock — shards never block each
    other's ingest for longer than their own export).
    """

    def __init__(self, sharded, directory: str, *, every: int = 0,
                 wal: bool = True, fsync: bool = False, keep: int = 3):
        self.directory = directory
        self.snapshotters: list[StreamSnapshotter] = []
        try:
            for index, forecaster in enumerate(sharded.shards):
                self.snapshotters.append(StreamSnapshotter(
                    forecaster, directory, every=every, wal=wal,
                    fsync=fsync, keep=keep, shard=index))
        except BaseException:
            self.close()
            raise

    def checkpoint(self) -> list[str]:
        """Checkpoint every shard; returns the written snapshot paths."""
        return [snapshotter.checkpoint()
                for snapshotter in self.snapshotters]

    @property
    def checkpoint_failures(self) -> int:
        """Failed automatic checkpoints, summed over the shards."""
        return sum(snapshotter.checkpoint_failures
                   for snapshotter in self.snapshotters)

    def prune_foreign(self) -> list[str]:
        """Remove chains whose shard label this universe does not run.

        After a resharded recovery into the *same* directory, chains
        from labels outside the target ring (a shrink's orphaned
        shards) are superseded — their keys now live in the target
        shards' chains, which start above every source seq.  Left
        behind, a later recovery would merge their stale entries back
        in.  Call this **after** the first post-recovery
        :meth:`checkpoint`, never before: until the new chains exist,
        the old ones are the only durable copy.

        Returns the removed paths.
        """
        owned = {snapshotter.shard for snapshotter in self.snapshotters}
        removed = sorted(path for _, shard, _, path
                         in chain_files(self.directory) if shard not in owned)
        for path in removed:
            os.unlink(path)
        return removed

    def close(self) -> None:
        for snapshotter in self.snapshotters:
            snapshotter.close()

    def __enter__(self) -> "ShardedSnapshotter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _sum_service_stats(states: list[dict]) -> dict:
    from ..serve.service import ServiceStats
    return ServiceStats.merge([
        ServiceStats.from_dict(state["service_stats"])
        for state in states]).as_dict()


def _sum_stream_stats(states: list[dict]) -> dict:
    from ..stream.forecaster import StreamStats
    merged = StreamStats()
    for state in states:
        for name in merged.as_dict():
            setattr(merged, name,
                    getattr(merged, name) + int(state["stream_stats"][name]))
    return merged.as_dict()


class ShardedRecoverer:
    """Staged, fail-closed recovery of an N-shard streaming universe.

    The only recoverer: a 1-worker cluster is ``1 → 1`` recovery.  It
    walks :class:`~repro.durable.recover.RecoveryStages`; ``detail``
    carries a per-source-shard breakdown plus ``resharded`` — whether
    entries were re-routed through the target ring instead of imported
    chain-for-chain.
    """

    def __init__(self):
        self._state = RecoveryState()
        self.history: list[RecoveryStages] = [RecoveryStages.INACTIVE]

    def state(self) -> RecoveryState:
        return self._state

    def _enter(self, stage: RecoveryStages) -> None:
        self._state = RecoveryState(stage=stage, detail=self._state.detail)
        self.history.append(stage)

    def _fail(self, reason: str, **detail) -> RecoveryState:
        merged = dict(self._state.detail)
        merged.update(detail)
        self._state = RecoveryState(stage=RecoveryStages.FAILED,
                                    failure_reason=reason, detail=merged)
        self.history.append(RecoveryStages.FAILED)
        return self._state

    def _succeed(self, **detail) -> RecoveryState:
        merged = dict(self._state.detail)
        merged.update(detail)
        self._state = RecoveryState(stage=RecoveryStages.SUCCEEDED,
                                    detail=merged)
        self.history.append(RecoveryStages.SUCCEEDED)
        return self._state

    # ------------------------------------------------------------------
    # the recovery pipeline
    # ------------------------------------------------------------------
    def recover(self, directory: str, sharded, *, replay_wal: bool = True,
                strict_wal: bool = True) -> RecoveryState:
        """Restore ``sharded`` from every chain found in ``directory``.

        Source shards are discovered from the file labels (snapshots
        and WALs); the target shard count is whatever ``sharded`` runs
        — they need not match.  With ``replay_wal`` each chain's WAL
        segments after its snapshot are replayed tick by tick.
        ``strict_wal=True`` treats a torn trailing record as fatal;
        ``False`` trims it — the torn tick was never durable, which is
        exactly the crash semantics of an un-fsynced append.  Never
        raises for recovery failures; returns the final
        :class:`RecoveryState` (``failed`` carries ``failure_reason``).
        """
        from .recover import locate_chain, verify_chain

        # ---- reading ------------------------------------------------
        self._enter(RecoveryStages.READING)
        labels = chain_labels(directory)
        if not labels:
            return self._fail(f"no snapshot found in {directory!r}")
        if None in labels:
            return self._fail(
                f"{directory!r} holds an unlabeled snapshot-{{seq}} / "
                f"wal-{{seq}} chain, which is not supported (this build "
                f"reads snapshot-{{shard}}-{{seq}} names; unlabeled "
                f"chains were last read by {RETIRED_LAYOUT_READER})")
        chains: dict = {}
        for label in labels:
            try:
                snapshot_path, arrays = locate_chain(
                    directory, shard=label, replay_wal=replay_wal)
            except ChainVerificationError as error:
                return self._fail(f"shard {label}: {error.reason}",
                                  **error.detail)
            chains[label] = (snapshot_path, arrays)

        # ---- verifying ----------------------------------------------
        self._enter(RecoveryStages.VERIFYING)
        verified: dict = {}
        shard_detail: dict = {}
        for label, (snapshot_path, arrays) in chains.items():
            try:
                state, records, snapshot_seq = verify_chain(
                    directory, snapshot_path, arrays, sharded,
                    shard=label, replay_wal=replay_wal,
                    strict_wal=strict_wal)
            except ChainVerificationError as error:
                return self._fail(f"shard {label}: {error.reason}",
                                  **error.detail)
            verified[label] = (state, records)
            shard_detail[str(label)] = {
                "snapshot_path": snapshot_path,
                "snapshot_seq": snapshot_seq,
                "wal_records": len(records),
            }

        # A chain-for-chain import is only faithful when the universe
        # shape survived: same shard labels as the target ring AND every
        # recovered key still hashes to the shard that persisted it.
        targets = list(range(len(sharded.shards)))
        faithful = set(labels) == set(targets) and all(
            sharded.shard_for(entry["key"]) == label
            for label, (state, _) in verified.items() if state is not None
            for entry in state["entries"])

        # ---- importing ----------------------------------------------
        self._enter(RecoveryStages.IMPORTING)
        try:
            crashpoint("recover.import")
            if faithful:
                for label in targets:
                    state, _ = verified[label]
                    shard = sharded.shards[label]
                    if state is not None:
                        shard.import_state(state)
                        shard.service.restore_stats(state["service_stats"])
                    else:
                        shard.clear()  # WAL-only bootstrap of this shard
            else:
                self._import_resharded(sharded, verified)
            replayed = 0
            for label in labels:
                for record in verified[label][1]:
                    crashpoint("recover.replay")
                    sharded.append(record["key"], record["timestamp"],
                                   record["values"])
                    replayed += 1
        except Exception as error:  # noqa: BLE001 — fail closed
            sharded.clear()
            return self._fail(
                f"import failed ({error}); streaming state cleared — "
                f"a partial restore would break replay parity")

        return self._succeed(
            shards=shard_detail, resharded=not faithful,
            source_shards=len(labels), target_shards=len(targets),
            replayed=replayed, final_seq=sharded.seq,
            keys=len(sharded.keys()))

    @staticmethod
    def _import_resharded(sharded, verified: dict) -> None:
        """Route every verified entry through the target ring.

        Keys are disjoint across source shards, so regrouping entries
        is a pure partition.  Per-shard sequence counters cannot be
        carried over meaningfully (each target now owns a different key
        set), so every target restarts at the highest source seq —
        monotonic for any subsequently chained WAL.  Cluster-cumulative
        stream counters are summed onto shard 0 (service counters via
        the router), keeping cluster totals continuous while making no
        claim about a per-shard split that no longer exists.
        """
        states = [state for state, _ in verified.values()
                  if state is not None]
        if not states:
            sharded.clear()
            return
        base_seq = max(int(state["seq"]) for state in states)
        config = states[0]["config"]
        zero_stream = _sum_stream_stats([])
        grouped: dict[int, list] = {index: []
                                    for index in range(len(sharded.shards))}
        for state in states:
            for entry in state["entries"]:
                grouped[sharded.shard_for(entry["key"])].append(entry)
        for index, shard in enumerate(sharded.shards):
            shard.import_state({
                "seq": base_seq,
                "config": config,
                "stream_stats": (_sum_stream_stats(states) if index == 0
                                 else zero_stream),
                "service_stats": {},  # restored router-level below
                "entries": grouped[index],
            })
        sharded.router.restore_stats(_sum_service_stats(states))
