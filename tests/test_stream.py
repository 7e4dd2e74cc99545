"""Tests for the streaming subsystem: state, ingestion, cadence, replay."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core import TimeKDConfig
from repro.core.student import StudentModel
from repro.data import StandardScaler
from repro.serve import ForecastService, save_student_artifact
from repro.stream import (
    ReplayParityError,
    SeriesState,
    StreamError,
    StreamGapError,
    StreamIngestor,
    StreamingForecaster,
    replay,
    verify_parity,
)

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


@pytest.fixture()
def walk(rng) -> np.ndarray:
    return np.cumsum(rng.normal(size=(150, N)), axis=0)


class TestSeriesState:
    def test_append_and_window(self, rng):
        state = SeriesState(4, 2, capacity=6)
        rows = rng.normal(size=(10, 2))
        assert not state.ready
        for i, row in enumerate(rows):
            state.append(row)
            if i >= 3:
                np.testing.assert_array_equal(
                    state.window(), rows[i - 3: i + 1])
        assert state.count == 10

    def test_window_is_zero_copy_view(self, rng):
        state = SeriesState(4, 2)
        state.extend(rng.normal(size=(9, 2)))
        assert np.shares_memory(state.window(), state._buffer)
        assert not np.shares_memory(state.window(copy=True), state._buffer)
        # the view survives capacity - input_len further appends
        view = state.window()
        before = view.copy()
        for _ in range(state.capacity - state.input_len):
            state.append(np.zeros(2))
        np.testing.assert_array_equal(view, before)

    def test_extend_matches_appends(self, rng):
        rows = rng.normal(size=(23, 3))
        bulk = SeriesState(5, 3, capacity=7)
        one = SeriesState(5, 3, capacity=7)
        bulk.extend(rows)
        for row in rows:
            one.append(row)
        np.testing.assert_array_equal(bulk.window(), one.window())

    def test_extend_longer_than_capacity(self, rng):
        rows = rng.normal(size=(40, 2))
        state = SeriesState(4, 2, capacity=6)
        state.append(rows[0])
        state.extend(rows[1:])
        np.testing.assert_array_equal(state.window(), rows[-4:])
        np.testing.assert_array_equal(state.tail(6), rows[-6:])
        assert state.count == 40

    def test_shape_and_readiness_errors(self):
        state = SeriesState(4, 2)
        with pytest.raises(ValueError, match="shape"):
            state.append(np.zeros(3))
        with pytest.raises(ValueError, match="needs"):
            state.window()
        with pytest.raises(ValueError, match="capacity"):
            SeriesState(4, 2, capacity=2)


class TestStreamIngestor:
    def make(self, **kwargs) -> StreamIngestor:
        kwargs.setdefault("interval", 1.0)
        return StreamIngestor(4, 2, **kwargs)

    def test_monotonic_and_grid_validation(self):
        ingestor = self.make()
        ingestor.append("k", 0.0, np.zeros(2))
        with pytest.raises(StreamError, match="non-monotonic"):
            ingestor.append("k", 0.0, np.zeros(2))
        with pytest.raises(StreamError, match="grid"):
            ingestor.append("k", 1.5, np.zeros(2))

    def test_sub_interval_jitter_rejected_as_duplicate(self):
        # a retransmitted tick with float jitter must not slip through
        # as a silent duplicate row (it would shift every later window)
        ingestor = StreamIngestor(4, 2, interval=60.0)
        ingestor.append("k", 100.0, np.zeros(2))
        with pytest.raises(StreamError, match="advances less than"):
            ingestor.append("k", 100.00001, np.ones(2))
        assert ingestor.state("k").count == 1

    def test_non_finite_rejected(self):
        ingestor = self.make()
        with pytest.raises(StreamError, match="non-finite"):
            ingestor.append("k", 0.0, np.array([np.nan, 1.0]))
        with pytest.raises(StreamError, match="non-finite"):
            ingestor.append("k", 0.0, np.array([np.inf, 1.0]))
        # finite in float64, but inf once cast to the student's float32
        with pytest.raises(StreamError, match="non-finite"):
            ingestor.append("k", 0.0, np.array([[1.0, 2.0], [-1e39, 1.0]]))
        ingestor.append("k", 0.0, np.full(2, np.finfo(np.float32).max))
        assert ingestor.state("k").count == 1

    def test_gap_policy_error(self):
        ingestor = self.make(policy="error")
        ingestor.append("k", 0.0, np.zeros(2))
        with pytest.raises(StreamGapError, match="2 missing"):
            ingestor.append("k", 3.0, np.ones(2))

    def test_gap_policy_ffill(self):
        ingestor = self.make(policy="ffill")
        ingestor.append("k", 0.0, np.array([1.0, 2.0]))
        result = ingestor.append("k", 3.0, np.array([7.0, 8.0]))
        assert result.observed == 1 and result.filled == 2
        state = ingestor.state("k")
        np.testing.assert_array_equal(
            state.tail(4),
            [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [7.0, 8.0]])
        assert ingestor.gaps("k") == 1

    def test_gap_policy_interpolate(self):
        ingestor = self.make(policy="interpolate")
        ingestor.append("k", 0.0, np.array([0.0, 0.0]))
        ingestor.append("k", 4.0, np.array([4.0, 8.0]))
        state = ingestor.state("k")
        np.testing.assert_allclose(
            state.tail(5),
            [[0, 0], [1, 2], [2, 4], [3, 6], [4, 8]])

    def test_max_gap_limits_filling(self):
        ingestor = self.make(policy="ffill", max_gap=2)
        ingestor.append("k", 0.0, np.zeros(2))
        with pytest.raises(StreamGapError, match="max_gap"):
            ingestor.append("k", 10.0, np.ones(2))

    def test_bulk_run_and_last_timestamp(self, rng):
        ingestor = self.make()
        rows = rng.normal(size=(6, 2))
        ingestor.append("k", 5.0, rows)
        assert ingestor.last_timestamp("k") == 10.0
        np.testing.assert_array_equal(ingestor.state("k").window(),
                                      rows[-4:])
        # next tick continues from the end of the run
        ingestor.append("k", 11.0, np.zeros(2))

    def test_keys_are_independent_and_droppable(self):
        ingestor = self.make()
        ingestor.append(("a", 1), 0.0, np.zeros(2))
        ingestor.append(("b", 2), 100.0, np.ones(2))
        assert set(ingestor.keys()) == {("a", 1), ("b", 2)}
        ingestor.drop(("a", 1))
        assert ingestor.keys() == [("b", 2)]
        with pytest.raises(KeyError, match="unknown"):
            ingestor.state(("a", 1))


class TestStreamingForecaster:
    def test_cadence_every_k_ticks(self, tmp_path, walk):
        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=4)
            issued = [i for i in range(100)
                      if fc.append("k", float(i), walk[i]) is not None]
        # first trigger at readiness (L = 32 ticks), then every 4th
        assert issued == list(range(L - 1, 100, 4))
        assert fc.stats.forecasts == len(issued)

    def test_on_demand_only_with_cadence_zero(self, tmp_path, walk):
        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=0)
            for i in range(L):
                assert fc.append("k", float(i), walk[i]) is None
            forecast = fc.forecast("k")
            assert forecast.shape == (M, N)
            np.testing.assert_array_equal(fc.latest("k"), forecast)

    def test_forecast_before_ready_raises(self, tmp_path, walk):
        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service)
            with pytest.raises(KeyError, match="unknown"):
                fc.forecast("nope")
            fc.append("k", 0.0, walk[0])
            with pytest.raises(ValueError, match="rows needed"):
                fc.forecast("k")
            assert fc.latest("k") is None

    def test_drop_retires_all_per_key_state(self, tmp_path, walk):
        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=1)
            fc.append("k", 0.0, walk[:L])
            assert fc.latest("k") is not None
            fc.drop("k")
            assert fc.keys() == []
            assert fc.latest("k") is None
            assert "k" not in fc._pending
            # a failed first append must not register a phantom key
            with pytest.raises(Exception, match="non-finite"):
                fc.append("k2", 0.0, np.full(N, np.nan))
            assert fc.keys() == []
            assert "k2" not in fc._pending

    def test_snapshot_composes_stream_and_service(self, tmp_path, walk):
        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=1)
            for i in range(L + 4):
                future = fc.append("k", float(i), walk[i])
            future.result()
            snapshot = fc.snapshot()
        assert snapshot["stream"]["ticks"] == L + 4
        assert snapshot["stream"]["forecasts"] == 5
        assert snapshot["stream"]["series"] == 1
        assert snapshot["service"]["served"] >= 5  # satellite: served
        assert snapshot["service"]["requests"] >= 5

    def test_many_series_share_coalesced_batches(self, tmp_path, rng):
        make_bundle(tmp_path)
        num_series = 24
        streams = rng.normal(size=(num_series, L + 1, N)).cumsum(axis=1)
        with ForecastService(str(tmp_path), max_batch=64) as service:
            fc = StreamingForecaster(service, cadence=1)
            for s in range(num_series):
                fc.append(("tenant", s), 0.0, streams[s, :L])
            service.pause()  # a burst tick across every series
            futures = [fc.append(("tenant", s), float(L), streams[s, L])
                       for s in range(num_series)]
            service.resume()
            results = [f.result() for f in futures]
            stats = service.snapshot()
        assert stats.max_coalesced > 1
        assert len(results) == num_series
        # coalesced streaming forecasts match per-series offline predict
        with ForecastService(str(tmp_path)) as service:
            for s in range(num_series):
                offline = service.predict(streams[s, 1: L + 1])
                np.testing.assert_array_equal(results[s], offline)


class TestReplayParity:
    def test_replay_is_bitwise_identical_to_offline_predict(
            self, tmp_path, walk):
        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=1)
            report = replay(fc, walk, key=("replay", 0), max_ticks=120)
            assert report.ticks == 120
            assert len(report.forecasts) == 120 - L + 1
            compared = verify_parity(report, fc, walk)
            assert compared == len(report.forecasts)

    def test_replay_parity_in_raw_units(self, tmp_path, rng):
        make_bundle(tmp_path)
        raw = rng.normal(2.0, 3.0, size=(80, N)).cumsum(axis=0) / 10 + 2.0
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=2, raw_values=True)
            report = replay(fc, raw, key="raw-stream")
            assert verify_parity(report, fc, raw) == len(report.forecasts)

    def test_parity_error_reported(self, tmp_path, walk):
        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=1)
            report = replay(fc, walk, max_ticks=L + 2)
            tick = next(iter(report.forecasts))
            report.forecasts[tick] = report.forecasts[tick] + 1.0
            with pytest.raises(ReplayParityError, match="diverged"):
                verify_parity(report, fc, walk)

    def test_report_as_dict_is_json_friendly(self, tmp_path, walk):
        import json

        make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=1)
            report = replay(fc, walk, max_ticks=L)
        payload = report.as_dict()
        json.dumps(payload)
        assert payload["forecasts"] == 1
        assert payload["ticks"] == L
        assert payload["service"]["served"] >= 1


class TestServiceStatsSatellites:
    def test_as_dict_includes_served(self, tmp_path):
        config = make_bundle(tmp_path)
        window = np.zeros((config.history_length, config.num_variables),
                          np.float32)
        with ForecastService(str(tmp_path)) as service:
            service.predict(window)
            stats = service.stats.as_dict()
        assert stats["served"] == 1
        assert stats["mean_batch"] == 1.0

    def test_snapshot_is_a_consistent_copy(self, tmp_path):
        config = make_bundle(tmp_path)
        window = np.zeros((config.history_length, config.num_variables),
                          np.float32)
        with ForecastService(str(tmp_path)) as service:
            service.predict(window)
            snapshot = service.snapshot()
            service.predict(window)
            later = service.snapshot()
        assert snapshot.served == 1  # not mutated by later traffic
        assert later.served == 2
        assert snapshot is not service.stats

    def test_config_for_returns_bundle_config(self, tmp_path):
        config = make_bundle(tmp_path)
        with ForecastService(str(tmp_path)) as service:
            key = service.resolve_key(None, None)
            assert service.config_for(key) == config


class TestGracefulShutdown:
    def test_sigint_drains_queue_before_exit(self, tmp_path):
        from repro.cli import _graceful_shutdown

        config = make_bundle(tmp_path)
        rng = np.random.default_rng(0)
        windows = rng.normal(size=(12, config.history_length,
                                   config.num_variables)).astype(np.float32)
        with ForecastService(str(tmp_path)) as service:
            # The handler only raises; the drain happens as the
            # exception unwinds through the context manager (outside
            # signal context, so it can never deadlock on the service
            # lock the interrupted frame may hold).
            with pytest.raises(SystemExit) as excinfo:
                with _graceful_shutdown(service):
                    service.predict(windows[0])  # warm load
                    service.pause()
                    futures = [service.submit(w) for w in windows]
                    handler = signal.getsignal(signal.SIGINT)
                    handler(signal.SIGINT, None)
            assert excinfo.value.code == 128 + signal.SIGINT
            # every queued request completed before "exit"
            assert all(f.done() for f in futures)
            expected = service_free_predict(tmp_path, windows)
            for future, want in zip(futures, expected):
                np.testing.assert_array_equal(future.result(), want)

    def test_handlers_restored_after_context(self, tmp_path):
        from repro.cli import _graceful_shutdown

        make_bundle(tmp_path)
        before = signal.getsignal(signal.SIGINT)
        with ForecastService(str(tmp_path)) as service:
            with _graceful_shutdown(service):
                assert signal.getsignal(signal.SIGINT) is not before
            assert signal.getsignal(signal.SIGINT) is before


def service_free_predict(artifact_dir, windows) -> list:
    with ForecastService(str(artifact_dir)) as service:
        return [service.predict(w) for w in windows]
