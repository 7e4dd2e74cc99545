"""Sharded runtime: hash ring, router, replay parity, durability.

The headline invariant mirrors the repo's replay-parity guarantee one
level up: routing ticks across N shared-nothing workers must be
**bitwise invisible** — an N-worker replay produces exactly the bytes
of the 1-worker run (the default deployment), and recovery across a
worker-count change (resharding) lands on the same bytes too.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import TimeKDForecaster
from repro.durable import (
    RecoveryError,
    RecoveryStages,
    ShardedRecoverer,
    ShardedSnapshotter,
    chain_files,
    chain_labels,
    flip_digest_byte,
    inject,
)
from repro.serve import ForecastService
from repro.shard import (
    DEFAULT_VNODES,
    HashRing,
    ShardRouter,
    ShardedStreamingForecaster,
)
from repro.shard import ring as ring_module
from repro.stream import StreamError, replay, verify_parity

from test_durable import L, M, N, key_state, make_bundle

KEYS = [("tenant", f"s{index}") for index in range(40)]


@pytest.fixture()
def bundle_dir(tmp_path):
    directory = str(tmp_path / "artifacts")
    os.makedirs(directory)
    make_bundle(directory)
    return directory


@pytest.fixture()
def walk(rng) -> np.ndarray:
    return np.cumsum(rng.normal(size=(150, N)), axis=0)


def make_sharded(bundle_dir, workers, vnodes=DEFAULT_VNODES, **overrides):
    router = ShardRouter(bundle_dir, workers=workers, vnodes=vnodes)
    options = dict(cadence=5, raw_values=True)
    options.update(overrides)
    return router, ShardedStreamingForecaster(router, "ETTm1", M, **options)


def make_single(bundle_dir, **overrides):
    """The default deployment: a 1-worker cluster."""
    return make_sharded(bundle_dir, 1, **overrides)


def chain_kinds(directory) -> set:
    """``{(kind, shard label)}`` of every durable file in ``directory``."""
    return {(kind, shard) for kind, shard, _, _ in chain_files(directory)}


def replay_keys(forecaster, walk, keys, ticks, first_tick=0):
    return [replay(forecaster, walk, key=key, max_ticks=ticks,
                   first_tick=first_tick) for key in keys]


def feed(forecaster, walk, keys, ticks, first_tick=0):
    """Ingest ticks ``first_tick .. ticks - 1`` of ``walk`` into each key.

    Keys are fed one after another, each waiting on every forecast
    before its next tick, so a failed forecast surfaces at the tick
    that issued it.  A key's state depends only on its own ticks, so
    the order keys are fed in does not change the universe.
    """
    interval = forecaster.interval
    for key in keys:
        for index in range(first_tick, min(ticks, len(walk))):
            future = forecaster.append(key, index * interval, walk[index])
            if future is not None:
                future.result()


def assert_same_universe(a, b, *, seq=True) -> None:
    """Per-key streaming state of ``a`` and ``b`` is bitwise identical.

    Works across worker counts: only the per-key surface (ring, count,
    last timestamp, gaps, pending ticks, latest forecast) and cluster
    totals are compared — never where a key happened to live.

    ``seq=False`` skips the cluster tick counter: after an ``N → M``
    reshard every target restarts at the highest source seq (chain
    monotonicity), so the summed counter legitimately differs.
    """
    assert sorted(map(str, a.keys())) == sorted(map(str, b.keys()))
    for key in b.keys():
        sa, sb = a.state(key), b.state(key)
        assert sa.count == sb.count
        # Compare the valid region only — bytes past ``count`` are
        # uninitialized allocator garbage, not state.
        held = min(sa.count, sa.capacity)
        assert sa.tail(held).tobytes() == sb.tail(held).tobytes()
        assert key_state(a, key) == key_state(b, key)
    if seq:
        assert a.seq == b.seq


def merged_stream_counters(forecaster) -> dict:
    stream = dict(forecaster.snapshot()["stream"])
    stream.pop("workers", None)
    return stream


# ----------------------------------------------------------------------
# the hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_assignment_is_deterministic_across_instances(self):
        first, second = HashRing(4), HashRing(4)
        for key in KEYS:
            assert first.shard_for(key) == second.shard_for(key)

    def test_assignment_is_process_stable(self):
        # Pinned against blake2b: a changed constant here means every
        # persisted shard label on disk just silently moved.
        ring = HashRing(4, vnodes=64)
        assert [ring.shard_for(("tenant", f"s{i}")) for i in range(8)] == \
            [ring.shard_for(("tenant", f"s{i}")) for i in range(8)]
        assert ring.shard_for("pinned-key") == HashRing(4).shard_for(
            "pinned-key")

    def test_partition_agrees_with_shard_for(self):
        ring = HashRing(3)
        groups = ring.partition(KEYS)
        assert sorted(key for group in groups.values() for key in group) \
            == sorted(KEYS)
        for shard, group in groups.items():
            assert all(ring.shard_for(key) == shard for key in group)

    def test_growing_moves_keys_only_to_the_new_shard(self):
        ring = HashRing(4)
        before = {key: ring.shard_for(key) for key in KEYS}
        ring.add_shard(4)
        for key in KEYS:
            after = ring.shard_for(key)
            assert after == before[key] or after == 4

    def test_removal_moves_only_the_removed_shards_keys(self):
        ring = HashRing(4)
        before = {key: ring.shard_for(key) for key in KEYS}
        ring.remove_shard(2)
        for key in KEYS:
            if before[key] != 2:
                assert ring.shard_for(key) == before[key]
            else:
                assert ring.shard_for(key) != 2

    def test_balance_stays_near_fair_share(self):
        ring = HashRing(4)
        keys = [("tenant", f"series-{index}") for index in range(2000)]
        sizes = [len(group) for group in ring.partition(keys).values()]
        assert len(sizes) == 4
        assert max(sizes) <= 2 * (len(keys) / 4)
        assert min(sizes) >= (len(keys) / 4) / 2

    def test_one_shard_ring_owns_every_key_without_hashing(
            self, monkeypatch):
        def no_hashing(key):
            raise AssertionError("a one-shard ring hashed a key")

        monkeypatch.setattr(ring_module, "key_point", no_hashing)
        assert {HashRing(1).shard_for(key) for key in KEYS} == {0}
        # The survivor of remove_shard keeps its label, not 0.
        ring = HashRing(3)
        ring.remove_shard(0)
        ring.remove_shard(2)
        assert {ring.shard_for(key) for key in KEYS} == {1}
        monkeypatch.undo()
        ring.add_shard(0)  # two shards again: lookups hash once more
        assert {ring.shard_for(key) for key in KEYS} == {0, 1}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)
        ring = HashRing(2)
        with pytest.raises(ValueError):
            ring.add_shard(1)  # already placed
        with pytest.raises(ValueError):
            ring.remove_shard(7)  # never placed
        ring.remove_shard(1)
        with pytest.raises(ValueError):
            ring.remove_shard(0)  # refuse an empty ring
        assert ring.shards == [0] and len(ring) == 1 and 0 in ring


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_routed_predict_matches_direct_service(self, bundle_dir, rng):
        window = rng.normal(size=(32, N))
        with ForecastService(bundle_dir) as service:
            direct = service.predict(window, "ETTm1", M)
        with ShardRouter(bundle_dir, workers=3) as router:
            routed = router.predict(window, "ETTm1", M)
        assert routed.tobytes() == direct.tobytes()

    def test_model_traffic_lands_on_one_worker(self, bundle_dir, rng):
        with ShardRouter(bundle_dir, workers=3) as router:
            futures = [router.submit(rng.normal(size=(32, N)),
                                     "ETTm1", M) for _ in range(6)]
            for future in futures:
                future.result()
            owner = router.worker_for_model(("ETTm1", M)).shard
            per_shard = {shard: stats.requests
                         for shard, stats in router.shard_snapshots().items()}
            assert per_shard[owner] == 6
            assert sum(per_shard.values()) == 6
            merged = router.snapshot()
            assert merged.requests == 6 and merged.served == 6

    def test_registry_surface_matches_service(self, bundle_dir):
        with ShardRouter(bundle_dir, workers=2) as router:
            assert router.keys() == [("ETTm1", M)]
            assert router.resolve_key() == ("ETTm1", M)
            assert router.path_for(("ETTm1", M)).endswith("m.npz")
            assert router.config_for(("ETTm1", M)).horizon == M
            with pytest.raises(KeyError):
                router.path_for(("Nope", 1))

    def test_single_worker_ring_is_valid(self, bundle_dir, rng):
        with ShardRouter(bundle_dir, workers=1) as router:
            assert router.predict(rng.normal(size=(32, N)),
                                  "ETTm1", M).shape == (M, N)

    def test_worker_shape_validation(self, bundle_dir):
        with pytest.raises(ValueError):
            ShardRouter(bundle_dir, workers=0)


# ----------------------------------------------------------------------
# sharded streaming parity
# ----------------------------------------------------------------------
class TestShardedReplayParity:
    @pytest.mark.parametrize("engine", ["module", "compiled"])
    def test_sharded_replay_is_bitwise_identical(self, bundle_dir, walk,
                                                 engine):
        keys = KEYS[:6]
        single_router, single = make_single(bundle_dir)
        feed(single, walk, keys, ticks=60)
        offline = TimeKDForecaster.from_artifact(
            os.path.join(bundle_dir, "m.npz"))
        expected = offline.predict(walk[60 - L: 60], raw_values=True,
                                   engine=engine)

        for workers in (2, 4):
            router, sharded = make_sharded(bundle_dir, workers)
            assert len({sharded.shard_for(key) for key in keys}) > 1
            feed(sharded, walk, keys, ticks=60)
            assert_same_universe(sharded, single)
            assert merged_stream_counters(sharded) == \
                merged_stream_counters(single)
            # every shard forecasts the offline forward's bytes
            for key in keys:
                assert sharded.forecast(key).tobytes() == \
                    expected.tobytes(), (
                        f"{key} on {workers} workers diverged from the "
                        f"offline {engine} forward")
            router.close()
        single_router.close()

    def test_verify_parity_through_the_sharded_front_end(self, bundle_dir,
                                                         walk):
        router, sharded = make_sharded(bundle_dir, workers=2)
        reports = replay_keys(sharded, walk, KEYS[:4], ticks=55)
        compared = sum(verify_parity(report, sharded, walk)
                       for report in reports)
        assert compared == sum(len(report.forecasts) for report in reports)
        assert compared > 0
        router.close()

    def test_cluster_snapshot_reads_like_one_service(self, bundle_dir,
                                                     walk):
        router, sharded = make_sharded(bundle_dir, workers=2)
        replay_keys(sharded, walk, KEYS[:4], ticks=40)
        snapshot = sharded.snapshot()
        assert snapshot["stream"]["workers"] == 2
        assert snapshot["stream"]["series"] == 4
        per_shard = sharded.shard_snapshots()
        assert sorted(per_shard) == [0, 1]
        assert sum(part["stream"]["ticks"] for part in per_shard.values()) \
            == snapshot["stream"]["ticks"]
        router.close()


# ----------------------------------------------------------------------
# routing once per series
# ----------------------------------------------------------------------
class TestRouteMap:
    def test_accepted_keys_skip_the_ring_after_their_first_tick(
            self, bundle_dir, walk, monkeypatch):
        router, sharded = make_sharded(bundle_dir, workers=2)
        lookups = []
        ring_shard_for = HashRing.shard_for

        def counted(ring, key):
            lookups.append(key)
            return ring_shard_for(ring, key)

        monkeypatch.setattr(HashRing, "shard_for", counted)
        keys = KEYS[:4]
        feed(sharded, walk, keys, ticks=40)
        assert lookups == keys  # one lookup per series, at its first tick
        for key in keys:
            assert sharded._routes[key] == ring_shard_for(router.ring, key)
            sharded.state(key)
            sharded.latest(key)
            sharded.forecast(key)
        assert lookups == keys
        router.close()

    def test_refused_first_tick_leaves_no_entry(self, bundle_dir):
        router, sharded = make_sharded(bundle_dir, workers=2)
        key = KEYS[0]
        with pytest.raises(StreamError, match="non-finite"):
            sharded.append(key, 0.0, np.full(N, np.nan))
        assert sharded._routes == {} and sharded.keys() == []
        router.close()

    def test_drop_and_clear_remove_entries(self, bundle_dir, walk):
        router, sharded = make_sharded(bundle_dir, workers=2)
        keys = KEYS[:6]
        feed(sharded, walk, keys, ticks=3)
        owners = {key: sharded.shard_for(key) for key in keys}
        assert len(set(owners.values())) > 1
        sharded.drop(keys[0])
        assert keys[0] not in sharded._routes
        assert keys[0] not in sharded.keys()
        # Re-added after the drop, the key routes where the ring says.
        feed(sharded, walk, keys[:1], ticks=3)
        assert sharded._routes[keys[0]] == owners[keys[0]]
        assert keys[0] in sharded.shards[owners[keys[0]]].keys()
        sharded.clear()
        assert sharded._routes == {} and sharded.keys() == []
        router.close()


# ----------------------------------------------------------------------
# per-shard durability + resharding
# ----------------------------------------------------------------------
def sharded_run_with_snapshots(bundle_dir, walk, snapdir, *, workers=2,
                               keys=KEYS[:4], ticks=50, every=0):
    router, sharded = make_sharded(bundle_dir, workers)
    snapshotter = ShardedSnapshotter(sharded, snapdir, every=every)
    feed(sharded, walk, keys, ticks=ticks)
    paths = snapshotter.checkpoint()
    snapshotter.close()
    return router, sharded, paths


class TestShardedDurability:
    def test_chains_are_labeled_per_shard(self, bundle_dir, walk,
                                          tmp_path):
        snapdir = str(tmp_path / "snaps")
        router, _, paths = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=2)
        assert len(paths) == 2
        names = sorted(os.listdir(snapdir))
        assert any(name.startswith("snapshot-0-") for name in names)
        assert any(name.startswith("snapshot-1-") for name in names)
        assert chain_kinds(snapdir) == {("snapshot", 0), ("snapshot", 1),
                                        ("wal", 0), ("wal", 1)}
        router.close()

    def test_faithful_recovery_restores_every_shard(self, bundle_dir,
                                                    walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        router, source, _ = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=2)
        fresh_router, fresh = make_sharded(bundle_dir, workers=2)
        recoverer = ShardedRecoverer()
        state = recoverer.recover(snapdir, fresh)
        assert state.stage is RecoveryStages.SUCCEEDED
        assert state.detail["resharded"] is False
        assert state.detail["source_shards"] == 2
        assert recoverer.history == [
            RecoveryStages.INACTIVE, RecoveryStages.READING,
            RecoveryStages.VERIFYING, RecoveryStages.IMPORTING,
            RecoveryStages.SUCCEEDED]
        assert_same_universe(fresh, source)
        assert merged_stream_counters(fresh) == \
            merged_stream_counters(source)
        fresh_router.close()
        router.close()

    @pytest.mark.parametrize("target_workers", [4, 3])
    def test_resharding_recovery_lands_on_the_same_bytes(
            self, bundle_dir, walk, tmp_path, target_workers):
        snapdir = str(tmp_path / "snaps")
        router, source, _ = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=2)
        fresh_router, fresh = make_sharded(bundle_dir, target_workers)
        state = fresh.restore_from(snapdir)
        assert state.detail["resharded"] is True
        assert state.detail["source_shards"] == 2
        assert state.detail["target_shards"] == target_workers
        assert_same_universe(fresh, source, seq=False)
        fresh_router.close()
        router.close()

    def test_recovered_reshard_continues_bitwise_identical(
            self, bundle_dir, walk, tmp_path):
        keys = KEYS[:4]
        snapdir = str(tmp_path / "snaps")

        # Uninterrupted reference: 2 workers straight through 100 ticks.
        ref_router, reference = make_sharded(bundle_dir, workers=2)
        feed(reference, walk, keys, ticks=100)

        # Checkpoint a 2-worker run at tick 60, reshard onto 4 workers,
        # finish the remaining 40 ticks there.
        router, _, _ = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=2, keys=keys, ticks=60)
        router.close()
        grown_router, grown = make_sharded(bundle_dir, workers=4)
        grown.restore_from(snapdir)
        feed(grown, walk, keys, ticks=100, first_tick=60)

        assert_same_universe(grown, reference, seq=False)
        grown_router.close()
        ref_router.close()

    def test_unlabeled_chain_fails_in_reading(self, bundle_dir, walk,
                                             tmp_path):
        # snapshot-{seq}.npz / wal-{seq}.log carry no shard label; this
        # build reads only the labelled names it writes.
        snapdir = str(tmp_path / "snaps")
        router, _, _ = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=2)
        router.close()
        for _, shard, _, path in chain_files(snapdir):
            if shard == 0:
                name = os.path.basename(path).replace("-0-", "-", 1)
                os.rename(path, os.path.join(snapdir, name))
        assert chain_labels(snapdir) == [None, 1]

        fresh_router, fresh = make_sharded(bundle_dir, workers=2)
        recoverer = ShardedRecoverer()
        state = recoverer.recover(snapdir, fresh)
        assert state.stage is RecoveryStages.FAILED
        assert "unlabeled snapshot-{seq}" in state.failure_reason
        assert "last read by commit 7fb55d7" in state.failure_reason
        assert recoverer.history == [
            RecoveryStages.INACTIVE, RecoveryStages.READING,
            RecoveryStages.FAILED]
        assert fresh.keys() == []
        fresh_router.close()

    def test_wal_replay_covers_post_checkpoint_ticks(self, bundle_dir,
                                                     walk, tmp_path):
        keys = KEYS[:4]
        snapdir = str(tmp_path / "snaps")
        router, source = make_sharded(bundle_dir, workers=2)
        snapshotter = ShardedSnapshotter(source, snapdir, every=0)
        feed(source, walk, keys, ticks=40)
        snapshotter.checkpoint()
        # WAL-only tail: ticks appended after the last checkpoint live
        # only in the per-shard logs.
        feed(source, walk, keys, ticks=48, first_tick=40)
        snapshotter.close()

        fresh_router, fresh = make_sharded(bundle_dir, workers=2)
        state = fresh.restore_from(snapdir)
        assert state.detail["replayed"] == 4 * 8
        assert_same_universe(fresh, source)
        fresh_router.close()
        router.close()

    def test_prune_foreign_after_shrink_enables_clean_resume(
            self, bundle_dir, walk, tmp_path):
        keys = KEYS[:6]
        snapdir = str(tmp_path / "snaps")
        router, _, _ = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=4, keys=keys, ticks=40)
        router.close()

        # Shrink 4 → 2 into the same directory, then re-anchor it:
        # checkpoint the new ring first, drop the orphaned labels after.
        small_router, small = make_sharded(bundle_dir, workers=2)
        state = small.restore_from(snapdir)
        assert state.detail["resharded"] is True
        snapshotter = ShardedSnapshotter(small, snapdir, every=0)
        snapshotter.checkpoint()
        pruned = snapshotter.prune_foreign()
        snapshotter.close()
        assert pruned  # shards 2 and 3 left chains behind
        assert chain_kinds(snapdir) == {("snapshot", 0), ("snapshot", 1),
                                        ("wal", 0), ("wal", 1)}

        # The next resume is faithful — no stale-label merge.
        fresh_router, fresh = make_sharded(bundle_dir, workers=2)
        second = fresh.restore_from(snapdir)
        assert second.detail["resharded"] is False
        assert_same_universe(fresh, small)
        fresh_router.close()
        small_router.close()

    def test_one_corrupt_shard_fails_the_whole_recovery(self, bundle_dir,
                                                        walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        router, _, paths = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=2)
        router.close()
        flip_digest_byte(paths[1])

        fresh_router, fresh = make_sharded(bundle_dir, workers=2)
        recoverer = ShardedRecoverer()
        state = recoverer.recover(snapdir, fresh, replay_wal=False)
        assert state.stage is RecoveryStages.FAILED
        assert state.failure_reason.startswith("shard 1:")
        assert "digest mismatch" in state.failure_reason
        assert fresh.keys() == []  # nothing imported, not even shard 0
        with pytest.raises(RecoveryError):
            fresh.restore_from(snapdir, replay_wal=False)
        fresh_router.close()

    def test_mid_import_crash_clears_every_shard(self, bundle_dir, walk,
                                                 tmp_path):
        snapdir = str(tmp_path / "snaps")
        router, _, _ = sharded_run_with_snapshots(
            bundle_dir, walk, snapdir, workers=2)
        router.close()

        fresh_router, fresh = make_sharded(bundle_dir, workers=2)
        replay_keys(fresh, walk, KEYS[4:6], ticks=10)  # live state too
        recoverer = ShardedRecoverer()
        with inject("recover.import"):
            state = recoverer.recover(snapdir, fresh)
        assert state.stage is RecoveryStages.FAILED
        assert "import failed" in state.failure_reason
        assert "state cleared" in state.failure_reason
        assert fresh.keys() == [] and fresh.seq == 0
        assert recoverer.history[-2:] == [
            RecoveryStages.IMPORTING, RecoveryStages.FAILED]
        fresh_router.close()

    def test_empty_directory_fails_in_reading(self, bundle_dir, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        router, fresh = make_sharded(bundle_dir, workers=2)
        recoverer = ShardedRecoverer()
        state = recoverer.recover(empty, fresh)
        assert state.stage is RecoveryStages.FAILED
        assert "no snapshot found" in state.failure_reason
        assert RecoveryStages.VERIFYING not in recoverer.history
        router.close()
