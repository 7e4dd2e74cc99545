"""Property-based invariants: ring buffers and window arithmetic.

Profiles are registered in ``conftest.py`` (``REPRO_HYPOTHESIS_PROFILE``
selects ``default``/``ci``); the whole module skips when hypothesis is
not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.data import MultivariateTimeSeries, make_forecasting_data  # noqa: E402
from repro.data.windows import WindowDataset  # noqa: E402
from repro.stream import SeriesState  # noqa: E402


@st.composite
def ring_setups(draw):
    input_len = draw(st.integers(1, 12))
    capacity = draw(st.integers(input_len, 3 * input_len))
    num_variables = draw(st.integers(1, 4))
    total = draw(st.integers(0, 3 * capacity + 5))
    seed = draw(st.integers(0, 2**31 - 1))
    rows = np.random.default_rng(seed).normal(
        2.0, 3.0, size=(total, num_variables))
    # chunk the rows into a mix of single appends and bulk extends
    chunks, start = [], 0
    while start < total:
        size = draw(st.integers(1, max(1, total - start)))
        chunks.append(rows[start: start + size])
        start += size
    return input_len, capacity, num_variables, rows, chunks


class TestSeriesStateInvariants:
    @given(ring_setups())
    def test_window_is_exact_tail_of_everything_appended(self, setup):
        input_len, capacity, num_variables, rows, chunks = setup
        state = SeriesState(input_len, num_variables, capacity=capacity)
        for chunk in chunks:
            if len(chunk) == 1:
                state.append(chunk[0])
            else:
                state.extend(chunk)
        assert state.count == len(rows)
        assert state.ready == (len(rows) >= input_len)
        if state.ready:
            np.testing.assert_array_equal(state.window(), rows[-input_len:])
            tail_len = min(len(rows), capacity)
            np.testing.assert_array_equal(state.tail(tail_len),
                                          rows[-tail_len:])

    @given(ring_setups())
    def test_window_view_never_copies(self, setup):
        input_len, capacity, num_variables, rows, chunks = setup
        state = SeriesState(input_len, num_variables, capacity=capacity)
        for chunk in chunks:
            state.extend(chunk)
        if state.ready:
            assert np.shares_memory(state.window(), state._buffer)


class TestSeriesStateRoundTrip:
    """``export_state`` → ``from_state`` is lossless, bitwise.

    The durable snapshot layer (:mod:`repro.durable`) rides entirely on
    this round trip: any drift here would silently break the
    kill/recover replay-parity guarantee.
    """

    @given(ring_setups())
    def test_export_import_preserves_everything(self, setup):
        input_len, capacity, num_variables, rows, chunks = setup
        state = SeriesState(input_len, num_variables, capacity=capacity)
        for chunk in chunks:
            if len(chunk) == 1:
                state.append(chunk[0])
            else:
                state.extend(chunk)
        restored = SeriesState.from_state(state.export_state())
        assert restored.count == state.count
        assert restored.ready == state.ready
        assert restored.capacity == state.capacity
        assert restored._buffer.tobytes() == state._buffer.tobytes()
        if state.ready:
            assert (restored.window().tobytes()
                    == state.window().tobytes())
            tail_len = min(state.count, capacity)
            assert (restored.tail(tail_len).tobytes()
                    == state.tail(tail_len).tobytes())

    @given(ring_setups())
    def test_restored_state_evolves_identically(self, setup):
        input_len, capacity, num_variables, rows, chunks = setup
        state = SeriesState(input_len, num_variables, capacity=capacity)
        for chunk in chunks:
            state.extend(chunk)
        restored = SeriesState.from_state(state.export_state())
        # feeding both the same future is indistinguishable from never
        # having serialized at all — bitwise, append by append
        future = np.random.default_rng(1234).normal(
            2.0, 3.0, size=(input_len + 3, num_variables))
        for row in future:
            state.append(row)
            restored.append(row)
            assert restored._buffer.tobytes() == state._buffer.tobytes()
        assert restored.count == state.count

    @given(ring_setups())
    def test_one_ring_copy_restores_both_halves(self, setup):
        input_len, capacity, num_variables, rows, chunks = setup
        state = SeriesState(input_len, num_variables, capacity=capacity)
        for chunk in chunks:
            state.extend(chunk)
        exported = state.export_state()
        assert exported["buffer"].shape == (capacity, num_variables)
        restored = SeriesState.from_state(exported)
        assert restored._buffer.tobytes() == state._buffer.tobytes()
        with pytest.raises(ValueError, match="shape"):
            SeriesState.from_state(dict(exported, buffer=state._buffer))

    @given(ring_setups())
    def test_export_is_a_snapshot_not_a_view(self, setup):
        input_len, capacity, num_variables, rows, chunks = setup
        state = SeriesState(input_len, num_variables, capacity=capacity)
        for chunk in chunks:
            state.extend(chunk)
        exported = state.export_state()
        before = exported["buffer"].copy()
        state.append(np.full(num_variables, 1e9))
        np.testing.assert_array_equal(exported["buffer"], before)


@st.composite
def window_shapes(draw):
    history = draw(st.integers(2, 32))
    horizon = draw(st.integers(1, 16))
    extra = draw(st.integers(0, 50))
    return history, horizon, history + horizon + extra


class TestWindowArithmetic:
    @given(window_shapes())
    def test_window_count(self, shape):
        history, horizon, total = shape
        dataset = WindowDataset(np.zeros((total, 2)), history, horizon)
        # definitional: one window per valid start position
        assert len(dataset) == total - history - horizon + 1
        first_history, first_future = dataset[0]
        last_history, last_future = dataset[len(dataset) - 1]
        assert first_history.shape == (history, 2)
        assert last_future.shape == (horizon, 2)
        # negative indexing agrees with the count
        np.testing.assert_array_equal(dataset[-1][0], last_history)

    @given(window_shapes(), st.floats(0.05, 1.0))
    def test_train_fraction_counts_windows_not_rows(self, shape, fraction):
        history, horizon, _ = shape
        window = history + horizon
        # total sized so every chronological split can hold >= 1 window
        total = max(12 * window, 60)
        series = MultivariateTimeSeries(
            np.random.default_rng(0).normal(size=(total, 2)))
        data = make_forecasting_data(
            series, history_length=history, horizon=horizon,
            train_fraction=fraction)
        train_end = int(total * 0.7)
        val_end = train_end + int(total * 0.1)
        full_windows = train_end - window + 1
        assert len(data.train) == max(1, int(round(full_windows * fraction)))
        # val/test window counts follow the lookback-extended segments
        assert len(data.val) == (val_end - train_end + history) - window + 1
        assert len(data.test) == (total - val_end + history) - window + 1
