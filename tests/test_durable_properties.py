"""Property-based invariants of the tick WAL (format 2).

Any interleaving of single ticks and ``(T, N)`` runs across str, int
and nested-tuple keys reads back exactly — key type, seq, timestamp,
shape and value bytes — also when the segment is closed and reopened
for append part-way, and when the writer is abandoned at any point
without ``close()`` (a ``kill -9``), optionally inside an append, then
reopened to continue: the closed segment holds exactly the bytes a
writer that never crashed leaves.  Profiles are registered in
``conftest.py``; the module skips when hypothesis is not installed.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.durable import (  # noqa: E402
    TickWAL,
    encode_key,
    read_wal,
    scan_wal,
    uncommitted_frame,
)

N = 3

stream_keys = st.recursive(
    st.one_of(st.text(max_size=6),
              st.integers(min_value=-2**70, max_value=2**70)),
    lambda parts: st.lists(parts, max_size=3).map(tuple),
    max_leaves=6)


@st.composite
def wal_runs(draw):
    keys = draw(st.lists(stream_keys, min_size=1, max_size=5, unique=True))
    # rows None = one (N,) tick; an int = a (rows, N) run
    ops = draw(st.lists(
        st.tuples(st.integers(0, len(keys) - 1),
                  st.one_of(st.none(), st.integers(0, 4)),
                  st.floats(allow_nan=False)),
        min_size=1, max_size=24))
    reopen_at = draw(st.integers(0, len(ops)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    ticks = []
    for index, rows, timestamp in ops:
        shape = (N,) if rows is None else (rows, N)
        ticks.append((keys[index], timestamp, rng.normal(size=shape)))
    return ticks, reopen_at


class TestTickWALFormat2:
    @given(wal_runs())
    def test_interleaved_keys_round_trip_exactly(self, run):
        ticks, reopen_at = run
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "wal-0-000000000007.log")
            seq = 7
            # Closed and reopened for append after ``reopen_at`` ticks.
            for part in (ticks[:reopen_at], ticks[reopen_at:]):
                with TickWAL(path, 7) as wal:
                    for key, timestamp, values in part:
                        seq += 1
                        wal.append(seq, key, timestamp, values)
                    # Open: the records end at durable_size, the
                    # preallocated rest is zeros.
                    assert scan_wal(path)[2] == wal.durable_size
                    with open(path, "rb") as handle:
                        handle.seek(wal.durable_size)
                        assert not handle.read().strip(b"\0")
                assert wal.durable_size == os.path.getsize(path)
            header, records = read_wal(path)

        assert header["base_seq"] == 7 and header["format"] == 2
        assert [record["seq"] for record in records] == \
            list(range(8, 8 + len(ticks)))
        for record, (key, timestamp, values) in zip(records, ticks):
            assert encode_key(record["key"]) == encode_key(key)
            assert record["timestamp"] == timestamp
            assert record["values"].shape == values.shape
            assert record["values"].tobytes() == values.tobytes()

    @given(wal_runs(), st.integers(0, 24),
           st.sampled_from([None, "head", "part", "body"]),
           st.integers(0, 2**31 - 1))
    def test_abandoned_writer_continues_as_if_never_crashed(
            self, run, crash_at, frame, seed):
        ticks, _ = run
        crash_at = min(crash_at, len(ticks))
        logged = [(seq, *tick) for seq, tick in enumerate(ticks, 8)]
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "wal-0-000000000007.log")
            reference = os.path.join(directory, "wal-1-000000000007.log")
            with TickWAL(reference, 7) as wal:
                for tick in logged:
                    wal.append(*tick)
            victim = TickWAL(path, 7)
            for tick in logged[:crash_at]:
                victim.append(*tick)
            # Killed here: the mapping and file go, nothing truncates.
            # With ``frame`` the kill landed inside the append of the
            # last tick, before its marker.
            victim._mapping.close()
            victim._file.close()
            durable = crash_at
            if frame is not None and crash_at:
                uncommitted_frame(path, written=frame, seed=seed)
                durable -= 1
            _, records = read_wal(path)  # strict: reads clean
            assert [record["seq"] for record in records] == \
                [seq for seq, *_ in logged[:durable]]
            with TickWAL(path, 7) as wal:
                for tick in logged[durable:]:
                    wal.append(*tick)
            with open(path, "rb") as mine, open(reference, "rb") as theirs:
                assert mine.read() == theirs.read()
