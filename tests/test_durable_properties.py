"""Property-based invariants of the tick WAL (format 2).

Any interleaving of single ticks and ``(T, N)`` runs across str, int
and nested-tuple keys reads back exactly — key type, seq, timestamp,
shape and value bytes — also when the segment is closed and reopened
for append part-way.  Profiles are registered in ``conftest.py``; the
module skips when hypothesis is not installed.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.durable import TickWAL, encode_key, read_wal  # noqa: E402

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
