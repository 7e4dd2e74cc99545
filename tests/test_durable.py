"""Durability layer: snapshots, WAL, staged recovery, fault injection.

Everything runs against the default deployment, a 1-worker cluster
(``ShardRouter`` + ``ShardedStreamingForecaster``) persisted by
``ShardedSnapshotter`` and restored by ``ShardedRecoverer``.  The
headline test kills a replay mid-stream at an arbitrary tick,
recovers, finishes, and demands the merged forecasts be **bitwise
identical** to an uninterrupted run and to the offline forward of each
engine (module oracle and compiled).  The fault tests prove every stage
fails closed: each injected fault lands the recoverer in ``failed``
with a specific ``failure_reason`` and never a partial import.
"""

from __future__ import annotations

import errno
import json
import mmap
import os
import struct
import zlib

import numpy as np
import pytest

from repro.core import TimeKDConfig, TimeKDForecaster
from repro.core.student import StudentModel
from repro.data import StandardScaler
from repro.serve import save_student_artifact
from repro.shard import ShardRouter, ShardedStreamingForecaster
from repro.stream import replay
from repro.durable import (
    InjectedCrash,
    KeyCodecError,
    RecoveryError,
    RecoveryStages,
    ShardedRecoverer,
    ShardedSnapshotter,
    SnapshotError,
    TickWAL,
    TornWALError,
    WALError,
    chain_labels,
    decode_key,
    disarm_all,
    encode_key,
    flip_digest_byte,
    inject,
    latest_snapshot,
    read_wal,
    scan_wal,
    snapshot_paths,
    truncate_file,
    uncommitted_frame,
    wal_paths,
    write_snapshot,
)
from repro.durable import wal as wal_module
from repro.durable.faults import torn_tail
from repro.durable.wal import WAL_MAGIC, chain_path
from repro.nn.serialization import load_arrays, save_arrays
from repro.persist import atomic_replace, atomic_write_json

L, N, M = 32, 3, 8


def stream_config(**overrides) -> TimeKDConfig:
    base = TimeKDConfig(history_length=L, horizon=M, num_variables=N,
                        d_model=16, num_heads=2, num_layers=1, ffn_dim=32)
    return base.with_updates(**overrides) if overrides else base


def make_bundle(directory, name="m.npz", dataset="ETTm1",
                config: TimeKDConfig | None = None) -> TimeKDConfig:
    config = config or stream_config()
    student = StudentModel(config)
    student.eval()
    scaler = StandardScaler().fit(np.random.default_rng(0).normal(
        2.0, 3.0, size=(200, config.num_variables)))
    save_student_artifact(os.path.join(directory, name), student, config,
                          scaler=scaler, metadata={"dataset": dataset})
    return config


@pytest.fixture(autouse=True)
def clean_crashpoints():
    disarm_all()
    yield
    disarm_all()


@pytest.fixture()
def walk(rng) -> np.ndarray:
    return np.cumsum(rng.normal(size=(150, N)), axis=0)


@pytest.fixture()
def bundle_dir(tmp_path):
    directory = str(tmp_path / "artifacts")
    os.makedirs(directory)
    make_bundle(directory)
    return directory


def make_forecaster(bundle_dir, **overrides):
    """The default deployment: a 1-worker router and its front end."""
    router = ShardRouter(bundle_dir)
    options = dict(cadence=5, raw_values=True)
    options.update(overrides)
    forecaster = ShardedStreamingForecaster(router, "ETTm1", M, **options)
    return router, forecaster


def checkpoint(forecaster, snapdir) -> str:
    """One snapshot of a 1-worker cluster (no WAL) → its path."""
    with ShardedSnapshotter(forecaster, snapdir, wal=False) as snapshotter:
        (path,) = snapshotter.checkpoint()
    return path


def key_state(forecaster, key) -> tuple:
    """Everything a key holds besides its ring: last timestamp, gap
    count, pending ticks and the latest forecast's dtype and bytes."""
    shard = forecaster._owner(key)
    latest = shard.latest(key)
    return (shard.ingestor.last_timestamp(key), shard.ingestor.gaps(key),
            shard._pending[key],
            None if latest is None else (latest.dtype, latest.tobytes()))


#: Config entries snapshots and WAL headers carried while drift
#: monitoring existed (its defaults).
DRIFT_CONFIG = {"fallback_naive": False,
                "drift": {"window": 64, "calibration": 16,
                          "threshold": 8.0, "slack": 0.5}}


#: Members of a format-2 snapshot (``latest`` only when one was issued).
FORMAT2_MEMBERS = {"__format__", "__config__", "__meta__", "__digest__",
                   "rings", "counts", "gaps", "pending", "has_latest"}


def assert_current_layout(path: str) -> None:
    """The snapshot at ``path`` is format 2: the columnar members only,
    one ring copy per key, no per-key member and no drift field
    anywhere."""
    arrays = load_arrays(path)
    assert int(arrays["__format__"]) == 2
    assert set(arrays) - {"latest"} == FORMAT2_MEMBERS
    config = json.loads(str(arrays["__config__"]))
    assert not set(DRIFT_CONFIG) & set(config)
    meta = json.loads(str(arrays["__meta__"]))
    assert set(meta) == {"seq", "artifact_digest", "shard", "stream_stats",
                         "service_stats", "keys", "last_timestamps"}
    assert not {"fallbacks", "drift_alarms"} & set(meta["stream_stats"])
    keys = len(meta["keys"])
    assert arrays["rings"].shape == (keys, config["capacity"], N)
    assert len(meta["last_timestamps"]) == keys
    assert int(arrays["has_latest"].sum()) == (
        len(arrays["latest"]) if "latest" in arrays else 0)


def set_wal_format(path: str, version: int) -> None:
    """Rewrite the ``format`` field of the segment header at ``path``."""
    with open(path, "r+b") as handle:
        blob = handle.read()
        handle.seek(0)
        handle.write(blob.replace(b'"format": 2', b'"format": %d' % version,
                                  1))


def wal_frames(path: str) -> list:
    """``[(offset, magic, body)]`` of every committed record frame after
    the header, up to an open segment's zero tail — the framing walked
    independently of :func:`read_wal`."""
    with open(path, "rb") as handle:
        blob = handle.read()
    offset = blob.index(b"\n", len(WAL_MAGIC)) + 1
    frames = []
    while offset < len(blob) and blob[offset:offset + 4] != bytes(4):
        length, _ = struct.unpack_from("<II", blob, offset + 4)
        frames.append((offset, blob[offset:offset + 4],
                       blob[offset + 12:offset + 12 + length]))
        offset += 12 + length
    return frames


def assert_open_segment(path: str, durable_size: int) -> None:
    """An open (or crashed) segment: its records end at
    ``durable_size``, and the preallocated bytes after them are zeros."""
    assert scan_wal(path)[2] == durable_size
    with open(path, "rb") as handle:
        blob = handle.read()
    assert len(blob) > durable_size
    assert not blob[durable_size:].strip(b"\0")


def states_bitwise_equal(a, b):
    assert sorted(map(str, a.keys())) == sorted(map(str, b.keys()))
    for key in a.keys():
        sa, sb = a.state(key), b.state(key)
        assert sa.count == sb.count
        assert sa._buffer.tobytes() == sb._buffer.tobytes()
        assert key_state(a, key) == key_state(b, key)
    assert a.snapshot()["stream"] == b.snapshot()["stream"]
    assert a.seq == b.seq


# ----------------------------------------------------------------------
# key codec + atomic sidecars
# ----------------------------------------------------------------------
class TestKeyCodec:
    @pytest.mark.parametrize("key", [
        "plain", 7, ("replay", "ETTm1#3"), ("a", ("b", 2), 3), (),
    ])
    def test_round_trip_is_exact(self, key):
        decoded = decode_key(json.loads(json.dumps(encode_key(key))))
        assert decoded == key
        assert type(decoded) is type(key)

    @pytest.mark.parametrize("bad", [1.5, True, None, ["list"], object()])
    def test_unsupported_keys_rejected(self, bad):
        with pytest.raises(KeyCodecError):
            encode_key(bad)

    @pytest.mark.parametrize("payload", [
        ["x", "v"], ["i", "7"], ["t", "notalist"], "junk", ["s"],
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(KeyCodecError):
            decode_key(payload)


class TestAtomicJSON:
    def test_write_and_no_temp_droppings(self, tmp_path):
        path = str(tmp_path / "stats.json")
        atomic_write_json(path, {"ticks": 42, "rate": 1.25})
        with open(path) as handle:
            assert json.load(handle) == {"ticks": 42, "rate": 1.25}
        assert os.listdir(tmp_path) == ["stats.json"]  # tmp file cleaned

    def test_overwrite_is_total(self, tmp_path):
        path = str(tmp_path / "stats.json")
        atomic_write_json(path, {"long": "x" * 4096})
        atomic_write_json(path, {"short": 1})
        with open(path) as handle:
            assert json.load(handle) == {"short": 1}


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestTickWAL:
    def test_append_read_round_trip(self, tmp_path, rng):
        path = str(tmp_path / "wal-000000000000.log")
        rows = rng.normal(size=(3, N))
        with TickWAL(path, 0, config={"dataset": "ETTm1"},
                     artifact_digest="abc") as wal:
            wal.append(1, ("replay", "a"), 0.0, rows[0])
            wal.append(2, ("replay", "a"), 1.0, rows[1])
            wal.append(3, "other", 2.0, rows[2])
        header, records = read_wal(path)
        assert header["base_seq"] == 0
        assert header["config"] == {"dataset": "ETTm1"}
        assert header["artifact_digest"] == "abc"
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert records[0]["key"] == ("replay", "a")
        assert records[2]["key"] == "other"
        for record, row in zip(records, rows):
            assert record["values"].tobytes() == np.asarray(
                row, dtype=np.float64).tobytes()

    def test_bulk_run_round_trips_shape(self, tmp_path, rng):
        path = str(tmp_path / "wal-000000000000.log")
        run = rng.normal(size=(5, N))
        with TickWAL(path, 0) as wal:
            wal.append(1, "k", 0.0, run)
        _, records = read_wal(path)
        assert records[0]["values"].shape == (5, N)
        assert records[0]["values"].tobytes() == run.astype(
            np.float64).tobytes()

    def test_torn_tail_trims_to_good_prefix(self, tmp_path, rng):
        path = str(tmp_path / "wal-000000000000.log")
        with TickWAL(path, 0) as wal:
            for seq in range(1, 4):
                wal.append(seq, "k", float(seq), rng.normal(size=N))
        torn_tail(path, drop_bytes=5)
        with pytest.raises(TornWALError) as info:
            read_wal(path)
        assert [r["seq"] for r in info.value.records] == [1, 2]

    def test_reopen_repairs_torn_tail(self, tmp_path, rng):
        path = str(tmp_path / "wal-000000000000.log")
        with TickWAL(path, 0) as wal:
            wal.append(1, "k", 0.0, rng.normal(size=N))
            wal.append(2, "k", 1.0, rng.normal(size=N))
        torn_tail(path, drop_bytes=3)
        # Appending after a crash must not bury new records behind the
        # torn bytes — the reopen trims them first.
        with TickWAL(path, 0) as wal:
            wal.append(2, "k", 1.0, rng.normal(size=N))
        _, records = read_wal(path)
        assert [r["seq"] for r in records] == [1, 2]

    def test_reopen_with_wrong_base_refused(self, tmp_path, rng):
        path = str(tmp_path / "wal-000000000007.log")
        with TickWAL(path, 7) as wal:
            wal.append(8, "k", 0.0, rng.normal(size=N))
        with pytest.raises(WALError, match="base_seq"):
            TickWAL(path, 9)

    def test_wal_paths_filters_and_sorts(self, tmp_path):
        directory = str(tmp_path)
        for base in (80, 0, 40):
            TickWAL(chain_path(directory, "wal", 0, base), base).close()
        TickWAL(chain_path(directory, "wal", 1, 40), 40).close()
        TickWAL(str(tmp_path / "wal-000000000040.log"), 40).close()  # legacy
        (tmp_path / "wal-junk.log").write_text("x")
        assert [base for base, _ in wal_paths(directory, 40)] == [40, 80]
        assert [base for base, _ in wal_paths(directory, 0, shard=1)] == [40]
        assert chain_labels(directory) == [None, 0, 1]

    def test_durable_size_tracks_flushes(self, tmp_path, rng):
        path = str(tmp_path / "wal-000000000000.log")
        wal = TickWAL(path, 0)
        header_size = wal.durable_size
        wal.append(1, "k", 0.0, rng.normal(size=N))
        assert wal.durable_size > header_size
        # Open: the committed records end at durable_size and the
        # preallocated rest is zeros.  Closed: the rest is gone.
        assert_open_segment(path, wal.durable_size)
        wal.close()
        assert wal.durable_size == os.path.getsize(path)

    def test_tear_anywhere_in_the_final_record_trims_to_it(self, tmp_path,
                                                            rng):
        path = str(tmp_path / "wal-000000000000.log")
        rows = rng.normal(size=(3, N))
        with TickWAL(path, 0) as wal:
            wal.append(1, "a", 0.0, rows[0])
            wal.append(2, "a", 1.0, rows[1])
            wal.append(3, ("b", 2), 2.0, rows[2])
        with open(path, "rb") as handle:
            intact = handle.read()
        start = wal_frames(path)[-1][0]
        for cut in range(start + 1, len(intact)):
            with open(path, "wb") as handle:
                handle.write(intact[:cut])
            with pytest.raises(TornWALError) as info:
                read_wal(path)
            assert info.value.good_offset == start
            assert [r["seq"] for r in info.value.records] == [1, 2]
            # Reopening trims the tear; logging the tick again restores
            # the segment byte for byte.
            with TickWAL(path, 0) as wal:
                assert wal.durable_size == start
                wal.append(3, ("b", 2), 2.0, rows[2])
            with open(path, "rb") as handle:
                assert handle.read() == intact

    @pytest.mark.parametrize("frames, reason", [
        ([(b"JUNK", b"")], "corrupt record marker"),
        ([(b"TICK", struct.pack("<QdBIII", 1, 0.0, 1, 1, N, 9)
           + b'["x","k"]' + bytes(8 * N))], "unknown key tag"),
        ([(b"TICK", struct.pack("<QdBIII", 1, 0.0, 1, 1, N, 99)
           + b'["s","k"]' + bytes(8 * N))], "undecodable record"),
        ([(b"TICK", struct.pack("<QdBIII", 1, 0.0, 1, 1, N, 9)
           + b'["s","k"]' + bytes(8))], "payload bytes"),
    ])
    def test_well_framed_but_malformed_records_refused(self, tmp_path,
                                                       frames, reason):
        # Intact frames (CRC and all) whose content is wrong are damage,
        # not a torn tail: read_wal raises WALError, never trims them.
        path = str(tmp_path / "wal-000000000000.log")
        TickWAL(path, 0).close()
        with open(path, "ab") as handle:
            for magic, body in frames:
                handle.write(magic + struct.pack(
                    "<II", len(body), zlib.crc32(body)) + body)
        with pytest.raises(WALError, match=reason) as info:
            read_wal(path)
        assert not isinstance(info.value, TornWALError)

    def test_format1_segment_with_records_refused(self, tmp_path, rng):
        # Refused as a whole, never read as a torn segment whose records
        # a lax recovery could trim.
        path = str(tmp_path / "wal-0-000000000000.log")
        with TickWAL(path, 0) as wal:
            wal.append(1, "k", 0.0, rng.normal(size=N))
        set_wal_format(path, 1)
        before = file_bytes(path)
        with pytest.raises(WALError, match="WAL format 1 of") as info:
            read_wal(path)  # no longer read...
        assert not isinstance(info.value, TornWALError)
        with pytest.raises(WALError, match="WAL format 1 of"):
            TickWAL(path, 0)  # ...and never appended to
        assert file_bytes(path) == before

    def test_format1_segment_is_refused_untouched(self, tmp_path):
        # Neither a read nor a reopen touches a retired format's
        # segment, not even one that holds only its header.
        path = str(tmp_path / "wal-0-000000000000.log")
        TickWAL(path, 0).close()
        set_wal_format(path, 1)
        before = file_bytes(path)
        for reopen in (read_wal, lambda path: TickWAL(path, 0)):
            with pytest.raises(WALError, match="WAL format 1 of") as info:
                reopen(path)
            assert "last read by commit 7fb55d7" in str(info.value)
            assert file_bytes(path) == before


# ----------------------------------------------------------------------
# the mapped segment: what a crash at any point of an append leaves
# ----------------------------------------------------------------------
def file_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def segment(path, ticks, *, close: bool = True) -> TickWAL:
    """Log ``ticks`` (``(seq, key, timestamp, values)``) into a fresh
    segment at ``path``; without ``close`` the writer is killed: its
    mapping and file go as a ``kill -9``'s exit drops them, with no
    truncation."""
    wal = TickWAL(str(path), 0)
    for tick in ticks:
        wal.append(*tick)
    if close:
        wal.close()
    else:
        wal._mapping.close()
        wal._file.close()
    return wal


@pytest.fixture()
def ticks(rng) -> list:
    rows = rng.normal(size=(3, N))
    return [(1, "a", 0.0, rows[0]), (2, "a", 1.0, rows[1]),
            (3, ("b", 2), 2.0, rows[2])]


class TestMappedSegment:
    def test_crashed_segment_reads_clean_before_its_zero_tail(
            self, tmp_path, ticks):
        path = str(tmp_path / "wal-0-000000000000.log")
        victim = segment(path, ticks, close=False)
        assert_open_segment(path, victim.durable_size)
        header, records = read_wal(path)  # strict: a zero tail is clean
        assert [record["seq"] for record in records] == [1, 2, 3]

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("written", ["head", "part", "body"])
    def test_uncommitted_frame_reads_clean_and_reopens_uncrashed(
            self, tmp_path, ticks, written, closed):
        path = str(tmp_path / "wal-0-000000000000.log")
        segment(path, ticks, close=closed)
        start = uncommitted_frame(path, written=written, seed=3)
        _, records = read_wal(path)
        assert [record["seq"] for record in records] == [1, 2]
        assert scan_wal(path)[2] == start
        # Reopening then closing leaves what an uncrashed writer of the
        # committed ticks leaves; logging the lost tick again, what one
        # of all of them leaves.
        with TickWAL(path, 0) as wal:
            assert wal.durable_size == start
        segment(tmp_path / "two.log", ticks[:2])
        assert file_bytes(path) == file_bytes(tmp_path / "two.log")
        with TickWAL(path, 0) as wal:
            wal.append(*ticks[2])
        segment(tmp_path / "three.log", ticks)
        assert file_bytes(path) == file_bytes(tmp_path / "three.log")

    @pytest.mark.parametrize("marker", [b"T\0\0\0", b"\0I\0K", b"TIC\0"])
    def test_partly_written_marker_is_uncommitted(self, tmp_path, ticks,
                                                  marker):
        path = str(tmp_path / "wal-0-000000000000.log")
        segment(path, ticks, close=False)
        start = wal_frames(path)[2][0]
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(marker)
        _, records = read_wal(path)
        assert [record["seq"] for record in records] == [1, 2]
        assert scan_wal(path)[2] == start

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("zeroed", ["marker", "record"])
    def test_zeroed_record_before_committed_ones_is_torn(
            self, tmp_path, ticks, zeroed, closed):
        # Only the last frame can be uncommitted: a zero marker with a
        # committed record after it is damage, never a silent end.
        path = str(tmp_path / "wal-0-000000000000.log")
        segment(path, ticks, close=closed)
        start, _, body = wal_frames(path)[1]
        width = 4 if zeroed == "marker" else 12 + len(body)
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(bytes(width))
        with pytest.raises(TornWALError) as info:
            read_wal(path)
        assert info.value.good_offset == start
        assert [record["seq"] for record in info.value.records] == [1]

    def test_records_straddle_extensions_and_window_moves(
            self, tmp_path, rng, monkeypatch):
        # One-page growth: records cross page boundaries, extensions
        # and window moves, and a 600-row run outgrows a whole step.
        monkeypatch.setattr(wal_module, "_GROWTH", mmap.PAGESIZE)
        path = str(tmp_path / "wal-0-000000000000.log")
        logged = []
        windows = set()
        with TickWAL(path, 0) as wal:
            for seq in range(1, 301):
                rows = 600 if seq == 150 else int(rng.integers(1, 20))
                tick = (seq, ("k", seq % 5), float(seq),
                        rng.normal(size=(rows, N)))
                wal.append(*tick)
                logged.append(tick)
                windows.add(wal._window)
                # The window never maps more than a growth step, a page
                # and the largest record.
                assert len(wal._mapping) <= 2 * mmap.PAGESIZE + 600 * 8 * N
            assert_open_segment(path, wal.durable_size)
            assert [r["seq"] for r in read_wal(path)[1]] == \
                list(range(1, 301))
        assert len(windows) > 10
        _, records = read_wal(path)
        for record, (seq, key, timestamp, values) in zip(records, logged):
            assert (record["seq"], record["key"], record["timestamp"]) \
                == (seq, key, timestamp)
            assert record["values"].tobytes() == values.tobytes()

    def test_fsync_syncs_each_record_before_append_returns(
            self, tmp_path, ticks, monkeypatch):
        syncs, fsyncs = [], []

        class SpyMap(mmap.mmap):
            def flush(self, offset, size):
                syncs.append((offset, size, bytes(self[offset:offset + size])))
                return super().flush(offset, size)

        real_fsync = os.fsync
        monkeypatch.setattr(wal_module.mmap, "mmap", SpyMap)
        monkeypatch.setattr(os, "fsync",
                            lambda fd: fsyncs.append(fd) or real_fsync(fd))
        path = str(tmp_path / "wal-0-000000000000.log")
        wal = TickWAL(path, 0, fsync=True)
        # The header and the preallocation are fsynced at open.
        assert len(fsyncs) == 2
        for count, tick in enumerate(ticks, 1):
            start = wal.durable_size - wal._window
            wal.append(*tick)
            stop = wal.durable_size - wal._window
            assert len(syncs) == count  # one msync per record...
            offset, size, synced = syncs[-1]
            # ...over its page-aligned range, after its marker was written
            assert offset % mmap.PAGESIZE == 0
            assert offset <= start and stop <= offset + size
            assert synced[start - offset:start - offset + 4] == b"TICK"
        assert len(fsyncs) == 2  # no extension: appends only msync
        wal.close()
        assert len(fsyncs) == 3
        assert [r["seq"] for r in read_wal(path)[1]] == [1, 2, 3]

    def test_full_disk_refuses_the_record_and_continues(
            self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(wal_module, "_GROWTH", mmap.PAGESIZE)
        real_pwrite = os.pwrite
        full = []

        def pwrite(fd, data, offset):
            if full:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", pwrite)
        path = str(tmp_path / "wal-0-000000000000.log")
        logged = [(seq, "k", float(seq), rng.normal(size=N))
                  for seq in range(1, 200)]
        wal = TickWAL(path, 0)
        seq = 0
        while not full:
            seq += 1
            before = wal._size
            wal.append(*logged[seq - 1])
            if wal._size > before:
                full.append(seq)  # the disk fills after this extension
        with pytest.raises(OSError) as info:
            while True:  # until a record needs the next extension
                seq += 1
                durable = wal.durable_size
                wal.append(*logged[seq - 1])
        assert info.value.errno == errno.ENOSPC
        # Nothing of the refused record was logged: a crash now reads
        # every earlier record, cleanly.
        assert wal.durable_size == durable
        assert_open_segment(path, durable)
        assert [r["seq"] for r in read_wal(path)[1]] == \
            list(range(1, seq))
        full.clear()  # space again: the record is logged on retry
        for retry in range(seq, len(logged) + 1):
            wal.append(*logged[retry - 1])
        wal.close()
        segment(tmp_path / "never-full.log", logged)
        assert file_bytes(path) == file_bytes(tmp_path / "never-full.log")


# ----------------------------------------------------------------------
# snapshot round trip
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    def test_restore_is_bitwise(self, bundle_dir, walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        replay(forecaster, walk, max_ticks=60)
        checkpoint(forecaster, snapdir)
        service2, restored = make_forecaster(bundle_dir)
        state = restored.restore_from(snapdir, replay_wal=False)
        assert state.stage is RecoveryStages.SUCCEEDED
        states_bitwise_equal(forecaster, restored)
        # cached latest forecast survives with dtype + bytes intact
        key = forecaster.keys()[0]
        a, b = forecaster.latest(key), restored.latest(key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        service.close()
        service2.close()

    def test_continuation_is_bitwise(self, bundle_dir, walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        replay(forecaster, walk, max_ticks=60)
        checkpoint(forecaster, snapdir)
        service2, restored = make_forecaster(bundle_dir)
        restored.restore_from(snapdir, replay_wal=False)
        rest_a = replay(forecaster, walk, first_tick=60)
        rest_b = replay(restored, walk, first_tick=60)
        assert sorted(rest_a.forecasts) == sorted(rest_b.forecasts)
        for tick, forecast in rest_a.forecasts.items():
            assert forecast.tobytes() == rest_b.forecasts[tick].tobytes()
        service.close()
        service2.close()

    def test_empty_forecaster_round_trips(self, bundle_dir, tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        checkpoint(forecaster, snapdir)
        service2, restored = make_forecaster(bundle_dir)
        state = restored.restore_from(snapdir, replay_wal=False)
        assert state.stage is RecoveryStages.SUCCEEDED
        assert restored.keys() == [] and restored.seq == 0
        service.close()
        service2.close()

    def test_service_counters_merge_cumulatively(self, bundle_dir, walk,
                                                 tmp_path):
        service, forecaster = make_forecaster(bundle_dir)
        replay(forecaster, walk, max_ticks=60)
        before = service.snapshot()
        snapdir = str(tmp_path / "snaps")
        checkpoint(forecaster, snapdir)
        service.close()
        service2, restored = make_forecaster(bundle_dir)
        restored.restore_from(snapdir, replay_wal=False)
        merged = service2.snapshot()
        assert merged.requests == before.requests
        assert merged.served == before.served
        assert merged.max_coalesced >= before.max_coalesced
        service2.close()


# ----------------------------------------------------------------------
# snapshotter policies
# ----------------------------------------------------------------------
class TestStreamSnapshotter:
    def test_every_n_ticks_checkpoints(self, bundle_dir, walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        with ShardedSnapshotter(forecaster, snapdir, every=20):
            replay(forecaster, walk, max_ticks=65)
        assert [seq for seq, _ in snapshot_paths(snapdir)] == [20, 40, 60]
        # WAL rotated at each checkpoint; tail segment holds ticks 61-65
        _, records = read_wal(wal_paths(snapdir, 60)[0][1])
        assert [r["seq"] for r in records] == [61, 62, 63, 64, 65]
        service.close()

    def test_prune_keeps_recoverable_suffix(self, bundle_dir, walk,
                                            tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        with ShardedSnapshotter(forecaster, snapdir, every=10, keep=2):
            replay(forecaster, walk, max_ticks=55)
        assert [seq for seq, _ in snapshot_paths(snapdir)] == [40, 50]
        assert all(base >= 40 for base, _ in wal_paths(snapdir))
        service.close()

    def test_checkpoint_drops_its_shards_crashed_staging_files(
            self, bundle_dir, walk, tmp_path):
        # A kill inside a checkpoint's atomic write leaves its staging
        # file: an atomic_replace entered and never exited.
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        with ShardedSnapshotter(forecaster, snapdir) as snapshotter:
            replay(forecaster, walk, max_ticks=20)
            staged = {}
            for shard in (0, 1):
                stage = atomic_replace(
                    chain_path(snapdir, "snapshot", shard, 20),
                    suffix=".npz.tmp")
                stage.__enter__().close()
                staged[shard] = os.path.basename(stage._tmp)
            snapshotter.checkpoint()
        assert staged[1].startswith("snapshot-1-000000000020.npz.")
        assert [name for name in os.listdir(snapdir)
                if name.endswith(".tmp")] == [staged[1]]
        service.close()

    def test_close_detaches(self, bundle_dir, walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        snapshotter = ShardedSnapshotter(forecaster, snapdir)
        replay(forecaster, walk, max_ticks=40)
        snapshotter.close()
        replay(forecaster, walk, first_tick=40, max_ticks=10)
        _, records = read_wal(wal_paths(snapdir, 0)[0][1])
        assert len(records) == 40  # post-close ticks were not logged
        service.close()

    def test_double_attach_refused(self, bundle_dir, tmp_path):
        service, forecaster = make_forecaster(bundle_dir)
        with ShardedSnapshotter(forecaster, str(tmp_path / "a")):
            with pytest.raises(RuntimeError, match="already has"):
                ShardedSnapshotter(forecaster, str(tmp_path / "b"))
        service.close()


# ----------------------------------------------------------------------
# the headline: kill mid-stream, recover, finish — bitwise identical
# ----------------------------------------------------------------------
class TestKillRecoverParity:
    @pytest.mark.parametrize("engine", ["module", "compiled"])
    def test_recovered_replay_is_bitwise_identical(self, engine,
                                                   bundle_dir, walk,
                                                   tmp_path):
        kill_at = 73  # not a checkpoint multiple: WAL replay must kick in
        snapdir = str(tmp_path / "snaps")

        service, reference = make_forecaster(bundle_dir)
        uninterrupted = replay(reference, walk)
        service.close()

        service, victim = make_forecaster(bundle_dir)
        ShardedSnapshotter(victim, snapdir, every=13)
        before = replay(victim, walk, max_ticks=kill_at)
        # the crash: no snapshotter close, no final checkpoint — the
        # only durable state is past snapshots + the flushed WAL
        service.close()
        del victim

        service, recovered = make_forecaster(bundle_dir)
        recoverer = ShardedRecoverer()
        state = recoverer.recover(snapdir, recovered)
        assert state.stage is RecoveryStages.SUCCEEDED
        assert recoverer.history == [
            RecoveryStages.INACTIVE, RecoveryStages.READING,
            RecoveryStages.VERIFYING, RecoveryStages.IMPORTING,
            RecoveryStages.SUCCEEDED]
        assert state.detail["final_seq"] == kill_at
        assert state.detail["replayed"] == kill_at - 65  # 5 × 13 = 65
        after = replay(recovered, walk, first_tick=kill_at)
        service.close()

        merged = dict(before.forecasts)
        merged.update(after.forecasts)
        assert sorted(merged) == sorted(uninterrupted.forecasts)
        for tick, forecast in uninterrupted.forecasts.items():
            assert merged[tick].tobytes() == forecast.tobytes(), (
                f"forecast at tick {tick} diverged after recovery")
        # the recovered stream also lands on the offline forward's bytes
        offline = TimeKDForecaster.from_artifact(
            os.path.join(bundle_dir, "m.npz"))
        for tick, forecast in merged.items():
            expected = offline.predict(walk[tick - L + 1: tick + 1],
                                       raw_values=True, engine=engine)
            assert forecast.tobytes() == expected.tobytes(), (
                f"forecast at tick {tick} diverged from the offline "
                f"{engine} forward")

    def test_wal_bootstrap_without_snapshot(self, bundle_dir, walk,
                                            tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, reference = make_forecaster(bundle_dir)
        uninterrupted = replay(reference, walk, max_ticks=50)
        service.close()

        # crash before the first checkpoint: only wal-0 exists
        service, victim = make_forecaster(bundle_dir)
        ShardedSnapshotter(victim, snapdir, every=0)
        before = replay(victim, walk, max_ticks=20)
        service.close()
        assert latest_snapshot(snapdir) is None

        service, recovered = make_forecaster(bundle_dir)
        state = recovered.restore_from(snapdir)
        assert state.detail["replayed"] == 20
        after = replay(recovered, walk, first_tick=20, max_ticks=30)
        service.close()

        merged = dict(before.forecasts)
        merged.update(after.forecasts)
        for tick, forecast in uninterrupted.forecasts.items():
            assert merged[tick].tobytes() == forecast.tobytes()


# ----------------------------------------------------------------------
# fault injection: every stage fails closed
# ----------------------------------------------------------------------
def snapshot_after_replay(bundle_dir, walk, snapdir, *, every=13,
                          ticks=60, **overrides):
    service, forecaster = make_forecaster(bundle_dir, **overrides)
    ShardedSnapshotter(forecaster, snapdir, every=every)
    replay(forecaster, walk, max_ticks=ticks)
    service.close()


class TestInjectedFaults:
    def test_truncated_snapshot_fails_with_reason(self, bundle_dir, walk,
                                                  tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir)
        truncate_file(latest_snapshot(snapdir), keep_fraction=0.5)
        service, forecaster = make_forecaster(bundle_dir)
        recoverer = ShardedRecoverer()
        state = recoverer.recover(snapdir, forecaster, replay_wal=False)
        assert state.stage is RecoveryStages.FAILED
        assert "unreadable snapshot" in state.failure_reason
        assert forecaster.keys() == []  # nothing was imported
        service.close()

    def test_flipped_digest_byte_fails_with_reason(self, bundle_dir, walk,
                                                   tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir)
        flip_digest_byte(latest_snapshot(snapdir))
        service, forecaster = make_forecaster(bundle_dir)
        state = ShardedRecoverer().recover(snapdir, forecaster,
                                           replay_wal=False)
        assert state.stage is RecoveryStages.FAILED
        assert "digest mismatch" in state.failure_reason
        service.close()

    @pytest.mark.parametrize("version", [1, 99])
    def test_future_format_version_rejected(self, bundle_dir, walk,
                                            tmp_path, version):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir)
        path = latest_snapshot(snapdir)
        arrays = load_arrays(path)
        arrays["__format__"] = np.int64(version)
        save_arrays(path, arrays)
        service, forecaster = make_forecaster(bundle_dir)
        state = ShardedRecoverer().recover(snapdir, forecaster,
                                           replay_wal=False)
        assert state.stage is RecoveryStages.FAILED
        assert f"format {version}" in state.failure_reason
        assert "not supported" in state.failure_reason
        assert "last read by commit 7fb55d7" in state.failure_reason
        assert forecaster.keys() == []
        service.close()

    @pytest.mark.parametrize("ticks, strict_wal", [
        # The checkpoint at tick 65 opened a header-only segment.
        (65, True),
        # strict_wal=False trims a torn tail; a retired segment holding
        # ticks 66..70 is not torn, and is never trimmed to nothing.
        (70, False),
    ], ids=["header-only", "records-lax"])
    def test_format1_wal_segment_fails_with_nothing_imported(
            self, bundle_dir, walk, tmp_path, ticks, strict_wal):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir, every=13,
                              ticks=ticks)
        ((_, path),) = wal_paths(snapdir, 65)
        set_wal_format(path, 1)
        service, forecaster = make_forecaster(bundle_dir)
        state = ShardedRecoverer().recover(snapdir, forecaster,
                                           strict_wal=strict_wal)
        assert state.stage is RecoveryStages.FAILED
        assert "WAL format 1" in state.failure_reason
        assert "last read by commit 7fb55d7" in state.failure_reason
        assert forecaster.keys() == []
        service.close()

    def test_config_mismatch_rejected(self, bundle_dir, walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir, interval=1.0)
        service, forecaster = make_forecaster(bundle_dir, interval=2.0)
        recoverer = ShardedRecoverer()
        with pytest.raises(RecoveryError, match="config mismatch"):
            forecaster.restore_from(snapdir, recoverer=recoverer)
        assert "interval" in recoverer.state().failure_reason
        assert forecaster.keys() == []
        service.close()

    def test_artifact_digest_mismatch_rejected(self, bundle_dir, walk,
                                               tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir)
        # same config (shapes/dataset identical) but different weights
        other_dir = str(tmp_path / "other")
        os.makedirs(other_dir)
        make_bundle(other_dir, config=stream_config(seed=1234))
        service, forecaster = make_forecaster(other_dir)
        state = ShardedRecoverer().recover(snapdir, forecaster)
        assert state.stage is RecoveryStages.FAILED
        assert "artifact digest mismatch" in state.failure_reason
        service.close()

    def test_torn_wal_strict_fails_lax_trims(self, bundle_dir, walk,
                                             tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir, every=13,
                              ticks=70)
        tail_path = wal_paths(snapdir, 65)[0][1]
        torn_tail(tail_path, drop_bytes=4)  # tick 70 mid-record

        service, strict = make_forecaster(bundle_dir)
        state = ShardedRecoverer().recover(snapdir, strict,
                                           strict_wal=True)
        assert state.stage is RecoveryStages.FAILED
        assert "torn WAL record" in state.failure_reason
        assert strict.keys() == []
        service.close()

        service, lax = make_forecaster(bundle_dir)
        state = ShardedRecoverer().recover(snapdir, lax, strict_wal=False)
        assert state.stage is RecoveryStages.SUCCEEDED
        assert state.detail["final_seq"] == 69  # torn tick 70 trimmed
        # the trimmed tick was never durable: re-feeding it and the rest
        # restores full bitwise parity with an uninterrupted run
        after = replay(lax, walk, first_tick=69)
        service.close()
        service, reference = make_forecaster(bundle_dir)
        uninterrupted = replay(reference, walk)
        service.close()
        for tick, forecast in after.forecasts.items():
            assert forecast.tobytes() == \
                uninterrupted.forecasts[tick].tobytes()

    def test_wal_gap_rejected(self, bundle_dir, walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir, every=13,
                              ticks=70)
        # drop a middle snapshot + its WAL continuation so the chain
        # from the remaining older snapshot has a hole
        os.unlink(latest_snapshot(snapdir))
        os.unlink(wal_paths(snapdir, 52)[0][1])
        service, forecaster = make_forecaster(bundle_dir)
        state = ShardedRecoverer().recover(snapdir, forecaster)
        assert state.stage is RecoveryStages.FAILED
        assert "WAL gap" in state.failure_reason
        service.close()

    def test_kill_between_append_and_wal_fsync(self, bundle_dir, walk,
                                               tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, victim = make_forecaster(bundle_dir)
        snapshotter = ShardedSnapshotter(victim, snapdir, every=13)
        replay(victim, walk, max_ticks=30)
        durable = snapshotter.snapshotters[0]._wal.durable_size
        with inject("wal.fsync"):
            with pytest.raises(InjectedCrash):
                victim.append(("replay", "series"), 30.0, walk[30])
        service.close()
        # the record was written but never flushed: simulate the page
        # loss by truncating to the last durable byte
        tail_path = wal_paths(snapdir, 26)[0][1]
        with open(tail_path, "r+b") as handle:
            handle.truncate(durable)

        service, recovered = make_forecaster(bundle_dir)
        state = recovered.restore_from(snapdir)
        assert state.detail["final_seq"] == 30  # tick 31 was not durable
        after = replay(recovered, walk, first_tick=30)
        service.close()
        service, reference = make_forecaster(bundle_dir)
        uninterrupted = replay(reference, walk)
        service.close()
        for tick, forecast in after.forecasts.items():
            assert forecast.tobytes() == \
                uninterrupted.forecasts[tick].tobytes()

    def test_crash_during_snapshot_publish_leaves_no_file(self, bundle_dir,
                                                          walk, tmp_path):
        snapdir = str(tmp_path / "snaps")
        service, forecaster = make_forecaster(bundle_dir)
        snapshotter = ShardedSnapshotter(forecaster, snapdir)
        replay(forecaster, walk, max_ticks=40)
        with inject("snapshot.publish"):
            with pytest.raises(InjectedCrash):
                snapshotter.checkpoint()
        assert latest_snapshot(snapdir) is None  # atomic: all or nothing
        # and the WAL still covers everything for bootstrap recovery
        service.close()
        service, recovered = make_forecaster(bundle_dir)
        state = recovered.restore_from(snapdir)
        assert state.detail["final_seq"] == 40
        service.close()

    def test_mid_import_crash_clears_state(self, bundle_dir, walk,
                                           tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir)
        service, forecaster = make_forecaster(bundle_dir)
        replay(forecaster, walk, max_ticks=10)  # pre-existing live state
        recoverer = ShardedRecoverer()
        with inject("recover.import"):
            state = recoverer.recover(snapdir, forecaster)
        assert state.stage is RecoveryStages.FAILED
        assert "import failed" in state.failure_reason
        assert "state cleared" in state.failure_reason
        # fail closed: nothing partial survives, not even the old state
        assert forecaster.keys() == []
        assert forecaster.seq == 0
        service.close()

    def test_mid_replay_crash_clears_state(self, bundle_dir, walk,
                                           tmp_path):
        snapdir = str(tmp_path / "snaps")
        snapshot_after_replay(bundle_dir, walk, snapdir, every=13,
                              ticks=70)
        service, forecaster = make_forecaster(bundle_dir)
        recoverer = ShardedRecoverer()
        with inject("recover.replay", at=3):
            state = recoverer.recover(snapdir, forecaster)
        assert state.stage is RecoveryStages.FAILED
        assert "import failed" in state.failure_reason
        assert forecaster.keys() == []
        assert recoverer.history[-2:] == [
            RecoveryStages.IMPORTING, RecoveryStages.FAILED]
        service.close()

    def test_missing_source_fails_in_reading(self, bundle_dir, tmp_path):
        service, forecaster = make_forecaster(bundle_dir)
        recoverer = ShardedRecoverer()
        state = recoverer.recover(str(tmp_path / "nowhere"), forecaster)
        assert state.stage is RecoveryStages.FAILED
        assert "no snapshot found" in state.failure_reason
        assert RecoveryStages.VERIFYING not in recoverer.history
        service.close()


# ----------------------------------------------------------------------
# bare snapshot format details
# ----------------------------------------------------------------------
class TestSnapshotFormat:
    def test_write_snapshot_appends_extension(self, bundle_dir, tmp_path):
        service, forecaster = make_forecaster(bundle_dir)
        path = write_snapshot(str(tmp_path / "bare"),
                              forecaster.shards[0].export_state())
        assert path.endswith(".npz") and os.path.exists(path)
        service.close()

    def test_digest_covers_every_entry(self, bundle_dir, walk, tmp_path):
        service, forecaster = make_forecaster(bundle_dir)
        replay(forecaster, walk, max_ticks=40)
        snapdir = str(tmp_path / "snaps")
        path = checkpoint(forecaster, snapdir)
        pristine = load_arrays(path)
        assert set(pristine) == FORMAT2_MEMBERS | {"latest"}
        service2, restored = make_forecaster(bundle_dir)
        # One changed value in any member but the format and the digest
        # itself fails the digest check.
        for name in sorted(set(pristine) - {"__format__", "__digest__"}):
            arrays = dict(pristine)
            value = pristine[name].copy()
            if value.dtype.kind == "U":
                value = np.array(str(value) + " ")
            elif value.dtype == bool:
                value.reshape(-1)[0] = not value.reshape(-1)[0]
            else:
                value.reshape(-1)[0] += 1
            arrays[name] = value
            save_arrays(path, arrays)
            state = ShardedRecoverer().recover(snapdir, restored,
                                               replay_wal=False)
            assert state.stage is RecoveryStages.FAILED, name
            assert "digest mismatch" in state.failure_reason, name
            assert restored.keys() == []
        service.close()
        service2.close()

    def test_mixed_latest_dtypes_are_refused_not_upcast(self, bundle_dir,
                                                        walk, tmp_path):
        service, forecaster = make_forecaster(bundle_dir)
        replay(forecaster, walk, key="a", max_ticks=40)
        replay(forecaster, walk, key="b", max_ticks=40)
        state = forecaster.shards[0].export_state()
        first = state["entries"][0]
        first["latest"] = first["latest"].astype(np.float32)
        with pytest.raises(SnapshotError, match="mix dtypes"):
            write_snapshot(str(tmp_path / "mixed"), state)
        service.close()

    def test_wal_header_with_drift_config_bootstraps(self, bundle_dir,
                                                     walk, tmp_path):
        # WAL segments written while drift monitoring existed carry the
        # fallback/drift settings in their header config: policy fields
        # recovery does not compare.
        snapdir = str(tmp_path / "snaps")
        service, victim = make_forecaster(bundle_dir)
        ShardedSnapshotter(victim, snapdir, every=0)
        replay(victim, walk, max_ticks=40)
        service.close()
        ((_, path),) = wal_paths(snapdir, shard=0)
        with open(path, "rb") as handle:
            magic, header, records = handle.read().split(b"\n", 2)
        header = json.loads(header)
        header["config"].update(DRIFT_CONFIG)
        with open(path, "wb") as handle:
            handle.write(b"\n".join([
                magic, json.dumps(header, sort_keys=True).encode(),
                records]))

        service, recovered = make_forecaster(bundle_dir)
        state = recovered.restore_from(snapdir)
        assert state.detail["replayed"] == 40
        assert recovered.seq == victim.seq
        for key in victim.keys():
            ring = victim.state(key)
            assert recovered.state(key).tail(L).tobytes() == \
                ring.tail(L).tobytes()
            assert key_state(recovered, key) == key_state(victim, key)
        assert_current_layout(checkpoint(recovered, str(tmp_path / "next")))
        service.close()
