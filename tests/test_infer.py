"""Tests for the tape-free compiled inference engine (repro.infer).

The engine's one contract is **bitwise parity** with the module
forward — every test here either asserts identical bytes against the
``StudentModel.predict`` oracle or exercises the scratch/locking
machinery that makes the compiled path allocation-free.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core import TimeKDConfig, TimeKDForecaster
from repro.core.student import StudentModel, evaluate_student
from repro.data import StandardScaler, load_dataset, make_forecasting_data
from repro.infer import ENGINES, CompiledStudent, resolve_engine
from repro.nn import no_grad
from repro.serve import ForecastService, save_student_artifact
from repro.stream import StreamingForecaster, replay, verify_parity

L, N, M = 32, 3, 8


def tiny_config(**overrides) -> TimeKDConfig:
    base = TimeKDConfig(history_length=L, horizon=M, num_variables=N,
                        d_model=16, num_heads=2, num_layers=1, ffn_dim=32)
    return base.with_updates(**overrides) if overrides else base


def make_student(config: TimeKDConfig | None = None,
                 seed: int = 0) -> StudentModel:
    """An eval-mode student with randomized (non-init) weights."""
    student = StudentModel(config or tiny_config())
    student.eval()
    rng = np.random.default_rng(seed)
    for p in student.parameters():
        p.data[...] = rng.standard_normal(p.data.shape).astype(
            np.float32) * 0.1
    return student


def make_bundle(directory, name="m.npz", dataset="ETTm1",
                config: TimeKDConfig | None = None) -> StudentModel:
    """Write a bundle; returns its student, the parity oracle."""
    config = config or tiny_config()
    student = make_student(config)
    scaler = StandardScaler().fit(np.random.default_rng(0).normal(
        2.0, 3.0, size=(200, config.num_variables)))
    save_student_artifact(os.path.join(directory, name), student, config,
                          scaler=scaler, metadata={"dataset": dataset})
    return student


class TestBufferDonation:
    def test_donate_is_zero_copy_for_compliant_arrays(self):
        from repro.nn import donate

        a = np.ones((4, 4), np.float32)
        assert donate(a) is a  # shares memory: mutations stay visible
        assert donate(a, copy=True) is not a

    def test_donate_copies_non_compliant_arrays_once(self):
        from repro.nn import donate

        transposed = np.ones((4, 8), np.float32).T
        out = donate(transposed)
        assert out.flags["C_CONTIGUOUS"]
        assert out is not transposed
        assert donate(np.ones(3, np.float64)).dtype == np.float32

    def test_scratch_pool_reuses_by_name_shape_dtype(self):
        from repro.nn import ScratchPool

        pool = ScratchPool()
        a = pool.take("buf", (2, 3))
        assert pool.take("buf", (2, 3)) is a
        assert pool.take("buf", (3, 2)) is not a
        assert pool.take("other", (2, 3)) is not a
        assert len(pool) == 3 and pool.nbytes == 3 * 24
        pool.clear()
        assert len(pool) == 0 and pool.nbytes == 0


class TestResolveEngine:
    def test_known_engines(self):
        assert ENGINES == ("module", "compiled")
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown inference engine"):
            resolve_engine("tensorrt")


class TestBitwiseParity:
    @pytest.mark.parametrize("batch", [1, 4, 17])
    def test_predict_bitwise_equal_to_module(self, rng, batch):
        student = make_student()
        engine = CompiledStudent(student)
        x = rng.standard_normal((batch, L, N)).astype(np.float32)
        np.testing.assert_array_equal(engine.predict(x), student.predict(x))

    @pytest.mark.parametrize("layers,heads,d_model", [(1, 2, 16), (3, 4, 32)])
    def test_parity_across_depths(self, rng, layers, heads, d_model):
        config = tiny_config(num_layers=layers, num_heads=heads,
                             d_model=d_model, ffn_dim=2 * d_model)
        student = make_student(config, seed=layers)
        engine = CompiledStudent(student)
        x = rng.standard_normal((5, L, N)).astype(np.float32)
        np.testing.assert_array_equal(engine.predict(x), student.predict(x))

    def test_single_window_promoted_like_module(self, rng):
        student = make_student()
        engine = CompiledStudent(student)
        window = rng.standard_normal((L, N)).astype(np.float32)
        out = engine.predict(window)
        assert out.shape == (1, M, N)  # leading batch axis kept
        np.testing.assert_array_equal(out, student.predict(window))

    def test_forward_attention_bitwise_equal(self, rng):
        student = make_student()
        engine = CompiledStudent(student)
        x = rng.standard_normal((3, L, N)).astype(np.float32)
        with no_grad():
            reference = student.forward(x, need_attention=True)
        prediction, attention = engine.forward(x, need_attention=True)
        np.testing.assert_array_equal(prediction, reference.prediction.data)
        np.testing.assert_array_equal(attention, reference.attention.data)

    def test_attention_skipped_unless_requested(self, rng):
        student = make_student()
        engine = CompiledStudent(student)
        x = rng.standard_normal((2, L, N)).astype(np.float32)
        prediction, attention = engine.forward(x)
        assert attention is None
        np.testing.assert_array_equal(prediction, student.predict(x))
        # the module path skips it symmetrically
        with no_grad():
            assert student.forward(x, need_attention=False).attention is None

    def test_parity_after_recompile_tracks_weight_updates(self, rng):
        student = make_student()
        engine = CompiledStudent(student)
        x = rng.standard_normal((2, L, N)).astype(np.float32)
        np.testing.assert_array_equal(engine.predict(x), student.predict(x))
        for p in student.parameters():
            p.data += 0.01
        # derived constants (fused QKV) are compile-time snapshots, so
        # a fresh compile re-establishes parity after in-place updates
        engine = CompiledStudent(student)
        np.testing.assert_array_equal(engine.predict(x), student.predict(x))

    def test_copy_weights_decouples_from_module(self, rng):
        student = make_student()
        engine = CompiledStudent(student, copy_weights=True)
        x = rng.standard_normal((2, L, N)).astype(np.float32)
        before = engine.predict(x)
        for p in student.parameters():
            p.data += 1.0
        np.testing.assert_array_equal(engine.predict(x), before)


class TestScratchMachinery:
    def test_scratch_reused_across_calls(self, rng):
        engine = CompiledStudent(make_student())
        x = rng.standard_normal((4, L, N)).astype(np.float32)
        engine.predict(x)
        warm = engine.scratch_nbytes
        assert warm > 0
        for _ in range(3):
            engine.predict(x)
        assert engine.scratch_nbytes == warm  # no regrowth at steady state

    def test_release_scratch_frees_and_regrows(self, rng):
        engine = CompiledStudent(make_student())
        x = rng.standard_normal((2, L, N)).astype(np.float32)
        expected = engine.predict(x)
        engine.release_scratch()
        assert engine.scratch_nbytes == 0
        np.testing.assert_array_equal(engine.predict(x), expected)

    def test_result_never_aliases_scratch(self, rng):
        engine = CompiledStudent(make_student())
        x = rng.standard_normal((1, L, N)).astype(np.float32)
        first = engine.predict(x)
        snapshot = first.copy()
        engine.predict(rng.standard_normal((1, L, N)).astype(np.float32))
        np.testing.assert_array_equal(first, snapshot)

    def test_call_and_window_counters(self, rng):
        engine = CompiledStudent(make_student())
        engine.predict(rng.standard_normal((3, L, N)).astype(np.float32))
        engine.predict(rng.standard_normal((L, N)).astype(np.float32))
        assert engine.calls == 2
        assert engine.windows == 4

    def test_bad_window_shape_rejected(self, rng):
        engine = CompiledStudent(make_student())
        with pytest.raises(ValueError, match="expected history"):
            engine.predict(rng.standard_normal((L + 1, N)))
        with pytest.raises(ValueError, match="expected history"):
            engine.predict(rng.standard_normal((2, L, N + 2)))

    def test_concurrent_predicts_serialize_correctly(self, rng):
        student = make_student()
        engine = CompiledStudent(student)
        inputs = [rng.standard_normal((2, L, N)).astype(np.float32)
                  for _ in range(8)]
        expected = [student.predict(x) for x in inputs]
        results: dict[int, np.ndarray] = {}

        def worker(i):
            for _ in range(5):
                results[i] = engine.predict(inputs[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, want in enumerate(expected):
            np.testing.assert_array_equal(results[i], want)


class TestEvaluateStudent:
    @pytest.fixture(scope="class")
    def windows(self):
        series = load_dataset("ETTm1", length=200)
        return make_forecasting_data(series, history_length=L, horizon=M)

    def test_compiled_metrics_identical(self, windows):
        student = make_student(tiny_config(num_variables=7))
        module = evaluate_student(student, windows.test, engine="module")
        compiled = evaluate_student(student, windows.test, engine="compiled")
        assert module == compiled

    def test_engine_instance_reused(self, windows):
        student = make_student(tiny_config(num_variables=7))
        engine = CompiledStudent(student)
        metrics = evaluate_student(student, windows.test, engine=engine)
        assert engine.calls > 0
        assert metrics == evaluate_student(student, windows.test)

    def test_unknown_engine_rejected(self, windows):
        with pytest.raises(ValueError, match="unknown inference engine"):
            evaluate_student(make_student(tiny_config(num_variables=7)),
                             windows.test, engine="onnx")


class TestForecasterIntegration:
    @pytest.fixture()
    def restored(self, tmp_path):
        make_bundle(str(tmp_path))
        return TimeKDForecaster.from_artifact(
            os.path.join(str(tmp_path), "m.npz"))

    def test_predict_engines_bitwise_equal(self, restored, rng):
        x = rng.standard_normal((4, L, N)).astype(np.float32)
        np.testing.assert_array_equal(
            restored.predict(x, engine="compiled"),
            restored.predict(x, engine="module"))

    def test_predict_raw_values_parity(self, restored, rng):
        raw = rng.normal(2.0, 3.0, size=(L, N)).astype(np.float32)
        np.testing.assert_array_equal(
            restored.predict(raw, raw_values=True, engine="compiled"),
            restored.predict(raw, raw_values=True, engine="module"))

    def test_compile_is_cached(self, restored):
        assert restored.compile() is restored.compile()
        assert restored.compile(force=True) is restored.compile()

    def test_evaluate_engines_agree(self, restored):
        from repro.data import MultivariateTimeSeries

        rng = np.random.default_rng(3)
        series = MultivariateTimeSeries(
            np.cumsum(rng.normal(size=(150, N)), axis=0))
        data = make_forecasting_data(series, history_length=L, horizon=M)
        assert (restored.evaluate(data.test, engine="compiled")
                == restored.evaluate(data.test, engine="module"))


class TestServiceIntegration:
    def test_compiled_service_bitwise_equal_to_module(self, tmp_path, rng):
        student = make_bundle(str(tmp_path))
        windows = rng.standard_normal((6, L, N)).astype(np.float32)
        with ForecastService(str(tmp_path)) as service:
            served = [service.predict(w) for w in windows]
        for window, forecast in zip(windows, served):
            np.testing.assert_array_equal(
                forecast, student.predict(window[None])[0])

    def test_compiled_batched_drain_parity(self, tmp_path, rng):
        student = make_bundle(str(tmp_path))
        windows = rng.standard_normal((12, L, N)).astype(np.float32)
        with ForecastService(str(tmp_path), max_batch=16) as service:
            service.pause()  # force one coalesced compiled forward
            futures = [service.submit(w) for w in windows]
            service.resume()
            results = [f.result() for f in futures]
            assert service.snapshot().max_coalesced > 1
        for window, got in zip(windows, results):
            np.testing.assert_array_equal(
                got, student.predict(window[None])[0])


class TestStreamingParity:
    def test_replay_parity_through_compiled_engine(self, tmp_path, rng):
        make_bundle(str(tmp_path))
        walk = np.cumsum(rng.normal(size=(100, N)), axis=0)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=1)
            report = replay(fc, walk, key=("replay", 0), max_ticks=80)
            assert len(report.forecasts) == 80 - L + 1
            # the replay harness recomputes every forecast offline and
            # demands bitwise identity
            assert verify_parity(report, fc, walk) == len(report.forecasts)

    def test_stream_and_module_services_agree(self, tmp_path, rng):
        student = make_bundle(str(tmp_path))
        walk = np.cumsum(rng.normal(size=(L + 10, N)), axis=0)
        with ForecastService(str(tmp_path)) as service:
            fc = StreamingForecaster(service, cadence=1)
            report = replay(fc, walk, key=("replay", 0))
        assert sorted(report.forecasts) == list(range(L - 1, len(walk)))
        for tick, forecast in report.forecasts.items():
            window = walk[tick - L + 1: tick + 1].astype(np.float32)
            np.testing.assert_array_equal(
                forecast, student.predict(window[None])[0])


class TestCLIEngineFlag:
    def test_predict_engines_produce_identical_files(self, tmp_path, capsys):
        make_bundle(str(tmp_path), dataset="ETTm1",
                    config=tiny_config(num_variables=7))
        artifact = os.path.join(str(tmp_path), "m.npz")
        out = os.path.join(str(tmp_path), "pred.npy")
        assert main(["predict", "--artifact", artifact,
                     "--dataset", "ETTm1", "--length", "300",
                     "--out", out]) == 0
        capsys.readouterr()
        # the CLI's input window: the last test window of the dataset
        data = make_forecasting_data(load_dataset("ETTm1", length=300),
                                     history_length=L, horizon=M)
        window, _ = data.test[-1]
        oracle = TimeKDForecaster.from_artifact(artifact).predict(
            window, engine="module")
        assert np.load(out).tobytes() == oracle.tobytes()
