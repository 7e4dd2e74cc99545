"""Tests for the deployment path: artifact bundles + ForecastService."""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import TimeKDConfig, TimeKDForecaster
from repro.core.student import StudentModel
from repro.data import StandardScaler, load_dataset, make_forecasting_data
from repro.nn import load_arrays
from repro.serve import service as service_module
from repro.serve import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    ForecastService,
    load_student_artifact,
    read_artifact_info,
    save_student_artifact,
)


def fast_config(**overrides) -> TimeKDConfig:
    base = TimeKDConfig(
        history_length=96, horizon=24, d_model=16, num_heads=2,
        num_layers=1, ffn_dim=32, teacher_epochs=1, student_epochs=1,
        batch_size=8, max_batches_per_epoch=2, llm_pretrain_steps=15,
        prompt_value_stride=8,
    )
    return base.with_updates(**overrides) if overrides else base


def tiny_student_config(**overrides) -> TimeKDConfig:
    base = TimeKDConfig(history_length=32, horizon=8, num_variables=3,
                        d_model=16, num_heads=2, num_layers=1, ffn_dim=32)
    return base.with_updates(**overrides) if overrides else base


def make_bundle(path: str, config: TimeKDConfig | None = None,
                dataset: str = "ETTm1",
                with_scaler: bool = True) -> tuple[TimeKDConfig, StudentModel]:
    """Write a bundle around a fresh (untrained) student."""
    config = config or tiny_student_config()
    student = StudentModel(config)
    student.eval()
    scaler = None
    if with_scaler:
        scaler = StandardScaler().fit(np.random.default_rng(0).normal(
            2.0, 3.0, size=(200, config.num_variables)))
    save_student_artifact(path, student, config, scaler=scaler,
                          metadata={"dataset": dataset})
    return config, student


@pytest.fixture(scope="module")
def small_data():
    series = load_dataset("ETTm1", length=600)
    return make_forecasting_data(series, history_length=96, horizon=24)


@pytest.fixture(scope="module")
def fitted(small_data, tiny_clm, tmp_path_factory):
    """A fitted forecaster, its saved bundle, and reference predictions."""
    model = TimeKDForecaster(fast_config(), clm=tiny_clm).fit(small_data)
    history, _ = small_data.test[0]
    expected = model.predict(history)
    model.compact()
    path = str(tmp_path_factory.mktemp("bundle") / "ettm1-h24.npz")
    model.save(path, metadata={"note": "test bundle"})
    return {"model": model, "path": path, "history": history,
            "expected": expected}


class TestArtifactRoundTrip:
    def test_fit_compact_save_load_predict_bitwise(self, fitted, small_data):
        restored = TimeKDForecaster.from_artifact(fitted["path"])
        np.testing.assert_array_equal(
            restored.predict(fitted["history"]), fitted["expected"])
        # the whole test split, batched, stays bitwise identical too
        histories = np.stack([small_data.test[i][0] for i in range(8)])
        np.testing.assert_array_equal(
            restored.predict(histories), fitted["model"].predict(histories))

    def test_bundle_carries_config_scaler_and_provenance(self, fitted):
        artifact = load_student_artifact(fitted["path"])
        assert artifact.config == fitted["model"].config
        assert artifact.scaler is not None
        np.testing.assert_allclose(artifact.scaler.mean,
                                   fitted["model"].scaler.mean)
        assert artifact.metadata["dataset"] == "ETTm1"
        assert artifact.metadata["note"] == "test bundle"
        assert "embedding_fingerprint" in artifact.metadata
        config, metadata = read_artifact_info(fitted["path"])
        assert config == artifact.config and metadata == artifact.metadata

    def test_restore_builds_no_trainer_clm_or_dataset(
            self, fitted, tiny_clm, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("get_pretrained called on the artifact path")

        monkeypatch.setattr("repro.core.trainer.get_pretrained", boom)
        monkeypatch.setattr("repro.llm.pretrain.get_pretrained", boom)
        forwards = tiny_clm.num_forwards
        restored = TimeKDForecaster.from_artifact(fitted["path"])
        restored.predict(fitted["history"])
        assert tiny_clm.num_forwards - forwards == 0
        assert restored.trainer is None

    def test_trainer_apis_fail_clearly_after_restore(self, fitted):
        restored = TimeKDForecaster.from_artifact(fitted["path"])
        with pytest.raises(RuntimeError, match="artifact bundle"):
            _ = restored.history
        with pytest.raises(RuntimeError, match="artifact bundle"):
            restored.attention_maps(fitted["history"],
                                    np.zeros((24, 7), np.float32))

    def test_raw_value_predict_round_trips_scaler(self, fitted, small_data):
        restored = TimeKDForecaster.from_artifact(fitted["path"])
        scaled = fitted["history"]
        raw = small_data.scaler.inverse_transform(scaled)
        expected = small_data.scaler.inverse_transform(
            restored.predict(scaled.astype(np.float32)))
        got = restored.predict(raw, raw_values=True)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)

    def test_raw_values_without_scaler_raises(self, tmp_path):
        path = os.path.join(tmp_path, "noscaler.npz")
        config, _ = make_bundle(path, with_scaler=False)
        restored = TimeKDForecaster.from_artifact(path)
        window = np.zeros((config.history_length, config.num_variables))
        with pytest.raises(RuntimeError, match="scaler"):
            restored.predict(window, raw_values=True)

    def test_extensionless_path_round_trips(self, tmp_path):
        # np.savez-style extension appending must be symmetric between
        # save and load, or `save('student')` + `from_artifact('student')`
        # would write one file and look for another
        path = os.path.join(tmp_path, "student")  # no .npz
        config, student = make_bundle(path)
        assert os.path.exists(path + ".npz")
        restored = TimeKDForecaster.from_artifact(path)
        window = np.zeros((config.history_length, config.num_variables),
                          np.float32)
        np.testing.assert_array_equal(restored.predict(window),
                                      student.predict(window[None])[0])

    def test_evaluate_works_without_trainer(self, fitted, small_data):
        restored = TimeKDForecaster.from_artifact(fitted["path"])
        metrics = restored.evaluate(small_data.test)
        in_memory = fitted["model"].evaluate(small_data.test)
        assert metrics == in_memory


class TestArtifactFailureModes:
    def test_truncated_bundle(self, tmp_path):
        path = os.path.join(tmp_path, "m.npz")
        make_bundle(path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(ArtifactError, match="corrupt or truncated"):
            load_student_artifact(path)

    def test_bitflip_in_weights_fails_digest(self, tmp_path):
        path = os.path.join(tmp_path, "m.npz")
        make_bundle(path)
        # flip bytes mid-file; zip entries are stored uncompressed, so
        # this lands in array data while the archive stays readable —
        # retry a few offsets in case we hit a header instead
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        for offset in range(len(blob) // 2, len(blob) - 256, 977):
            tampered = bytearray(blob)
            tampered[offset:offset + 8] = b"\xa5" * 8
            with open(path, "wb") as fh:
                fh.write(tampered)
            try:
                load_student_artifact(path)
            except ArtifactError:
                return  # corruption detected
        pytest.fail("no tampering offset was detected")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_student_artifact(os.path.join(tmp_path, "absent.npz"))

    def test_not_an_artifact(self, tmp_path):
        path = os.path.join(tmp_path, "weights.npz")
        np.savez(path, w=np.zeros(3))
        with pytest.raises(ArtifactError, match="missing entry"):
            load_student_artifact(path)

    def test_future_format_version_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "m.npz")
        make_bundle(path)
        arrays = load_arrays(path)
        arrays["__format__"] = np.int64(ARTIFACT_FORMAT_VERSION + 1)
        np.savez(path, **arrays)
        with pytest.raises(ArtifactError, match="format"):
            load_student_artifact(path)

    def test_config_weight_mismatch(self, tmp_path):
        path = os.path.join(tmp_path, "m.npz")
        # weights from one shape, config claiming another
        student = StudentModel(tiny_student_config())
        save_student_artifact(
            path, student, tiny_student_config(d_model=32),
            metadata={"dataset": "X"})
        with pytest.raises(ArtifactError, match="do not match"):
            load_student_artifact(path).build_student()

    def test_unknown_config_field_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "m.npz")
        make_bundle(path)
        arrays = load_arrays(path)
        config = json.loads(str(arrays["__config__"]))
        config["from_the_future"] = 1
        arrays["__config__"] = np.array(json.dumps(config))
        np.savez(path, **arrays)
        with pytest.raises(ArtifactError, match="invalid config"):
            load_student_artifact(path)


class TestConfigRoundTrip:
    def test_to_dict_from_dict_identity(self):
        config = fast_config(embedding_cache_dir="/tmp/x",
                             precompute_embeddings=True)
        assert TimeKDConfig.from_dict(config.to_dict()) == config

    def test_missing_fields_use_defaults(self):
        assert TimeKDConfig.from_dict({"horizon": 48}).horizon == 48

    def test_unknown_fields_raise(self):
        with pytest.raises(ValueError, match="unknown TimeKDConfig"):
            TimeKDConfig.from_dict({"bogus_field": 1})


class TestScalerState:
    def test_state_round_trip(self):
        values = np.random.default_rng(3).normal(5.0, 2.0, size=(50, 4))
        scaler = StandardScaler().fit(values)
        clone = StandardScaler.from_state(scaler.state_dict())
        np.testing.assert_array_equal(clone.transform(values),
                                      scaler.transform(values))
        np.testing.assert_array_equal(
            clone.inverse_transform(values), scaler.inverse_transform(values))

    def test_unfitted_state_dict_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().state_dict()


class TestForecastService:
    def test_coalesced_results_match_sequential(self, tmp_path):
        config, student = make_bundle(os.path.join(tmp_path, "m.npz"))
        rng = np.random.default_rng(0)
        windows = rng.normal(size=(24, config.history_length,
                                   config.num_variables)).astype(np.float32)
        with ForecastService(str(tmp_path)) as service:
            sequential = [service.predict(w) for w in windows]
        with ForecastService(str(tmp_path)) as service:
            service.pause()  # let the queue fill so one forward serves all
            futures = [service.submit(w) for w in windows]
            service.resume()
            coalesced = [f.result() for f in futures]
            assert service.stats.max_coalesced == len(windows)
        for a, b in zip(sequential, coalesced):
            np.testing.assert_array_equal(a, b)
        # and both match a direct student forward
        direct = student.predict(windows)
        np.testing.assert_array_equal(np.stack(coalesced), direct)

    def test_concurrent_clients_coalesce(self, tmp_path):
        config, student = make_bundle(os.path.join(tmp_path, "m.npz"))
        window = np.ones((config.history_length, config.num_variables),
                         np.float32)
        results = [None] * 16

        def client(i):
            with_service = service.predict(window)
            results[i] = with_service

        with ForecastService(str(tmp_path)) as service:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        expected = student.predict(window[None])[0]
        for r in results:
            np.testing.assert_array_equal(r, expected)

    def test_concurrent_cold_loads_read_each_bundle_once(
            self, tmp_path, monkeypatch):
        config, student = make_bundle(os.path.join(tmp_path, "m.npz"))
        windows = np.random.default_rng(5).normal(
            size=(8, config.history_length,
                  config.num_variables)).astype(np.float32)
        loads: list[str] = []

        def counting_load(path):
            loads.append(path)
            return load_student_artifact(path)

        monkeypatch.setattr(service_module, "load_student_artifact",
                            counting_load)
        barrier = threading.Barrier(len(windows))
        results: list = [None] * len(windows)
        errors: list[BaseException] = []

        def client(i):
            barrier.wait(timeout=30)
            try:
                results[i] = service.predict(windows[i])
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ForecastService(str(tmp_path)) as service:
                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(len(windows))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert service.stats.loads == 1
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(loads) == 1
        for window, result in zip(windows, results):
            assert result.tobytes() == \
                student.predict(window[None])[0].tobytes()

    def test_lru_eviction(self, tmp_path):
        cfg_a, _ = make_bundle(os.path.join(tmp_path, "a.npz"), dataset="A")
        cfg_b, _ = make_bundle(os.path.join(tmp_path, "b.npz"), dataset="B")
        window = np.zeros((cfg_a.history_length, cfg_a.num_variables),
                          np.float32)
        with ForecastService(str(tmp_path), max_models=1) as service:
            service.predict(window, dataset="A")
            service.predict(window, dataset="B")
            service.predict(window, dataset="A")
            assert service.stats.loads == 3
            assert service.stats.evictions == 2

    def test_unknown_and_ambiguous_keys(self, tmp_path):
        make_bundle(os.path.join(tmp_path, "a.npz"), dataset="A")
        make_bundle(os.path.join(tmp_path, "b.npz"), dataset="B")
        with ForecastService(str(tmp_path)) as service:
            with pytest.raises(KeyError, match="no artifact"):
                service.resolve_key("C", None)
            with pytest.raises(KeyError, match="ambiguous"):
                service.resolve_key(None, 8)

    def test_bad_request_shape_rejected(self, tmp_path):
        make_bundle(os.path.join(tmp_path, "m.npz"))
        with ForecastService(str(tmp_path)) as service:
            with pytest.raises(ValueError, match="shape"):
                service.submit(np.zeros((4, 4), np.float32))

    def test_scan_skips_unreadable_bundles(self, tmp_path):
        make_bundle(os.path.join(tmp_path, "good.npz"))
        with open(os.path.join(tmp_path, "junk.npz"), "wb") as fh:
            fh.write(b"not a zip at all")
        with ForecastService(str(tmp_path)) as service:
            assert len(service.keys()) == 1

    def test_submit_after_close_raises(self, tmp_path):
        config, _ = make_bundle(os.path.join(tmp_path, "m.npz"))
        service = ForecastService(str(tmp_path))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(np.zeros((config.history_length,
                                     config.num_variables), np.float32))

    def test_raw_requests_match_direct_raw_predict(self, tmp_path):
        path = os.path.join(tmp_path, "m.npz")
        config, _ = make_bundle(path)
        restored = TimeKDForecaster.from_artifact(path)
        raw = np.random.default_rng(4).normal(
            2.0, 3.0, size=(config.history_length, config.num_variables))
        with ForecastService(str(tmp_path)) as service:
            served = service.predict(raw, raw_values=True)
        np.testing.assert_array_equal(
            served, restored.predict(raw, raw_values=True))


class TestThreadedDrain:
    """The one drain thread: FIFO per model, first pending model first."""

    def _multi_bundle_windows(self, tmp_path, datasets=("A", "B")):
        config = None
        for name in datasets:
            config, _ = make_bundle(
                os.path.join(tmp_path, f"{name.lower()}.npz"), dataset=name)
        rng = np.random.default_rng(7)
        return config, {
            name: rng.normal(size=(12, config.history_length,
                                   config.num_variables)).astype(np.float32)
            for name in datasets}

    def test_threaded_drain_preserves_per_model_fifo(self, tmp_path):
        config, windows = self._multi_bundle_windows(tmp_path)
        completed: list[tuple[str, int]] = []
        with ForecastService(str(tmp_path), max_batch=4) as service:
            service.pause()
            futures = {name: [] for name in windows}
            for index in range(12):  # interleave the two models
                for name in windows:
                    future = service.submit(windows[name][index],
                                            dataset=name)
                    future.add_done_callback(
                        lambda _, tag=(name, index): completed.append(tag))
                    futures[name].append(future)
            service.resume()
            results = {name: [f.result() for f in per_model]
                       for name, per_model in futures.items()}
            assert service.snapshot().batches == 6
        # max_batch=4 splits each model's 12 requests into 3 batches.  A
        # was queued first, so its batches drain before any of B's, and
        # within a model the requests complete in submission order.
        assert completed == ([("A", i) for i in range(12)]
                             + [("B", i) for i in range(12)])
        for name in windows:
            restored = TimeKDForecaster.from_artifact(
                os.path.join(tmp_path, f"{name.lower()}.npz"))
            for window, result in zip(windows[name], results[name]):
                np.testing.assert_array_equal(
                    result, restored.predict(window, engine="module"))

    def test_snapshot_aggregates_plan_cache_counters(self, tmp_path):
        config, _ = make_bundle(os.path.join(tmp_path, "m.npz"))
        rng = np.random.default_rng(5)
        with ForecastService(str(tmp_path), max_batch=8) as service:
            for batch in (1, 3, 1, 3, 8, 1):
                ws = rng.normal(size=(batch, config.history_length,
                                      config.num_variables)).astype(
                                          np.float32)
                service.pause()
                futures = [service.submit(w) for w in ws]
                service.resume()
                for f in futures:
                    f.result()
            stats = service.snapshot().as_dict()
        # One load-time compile, never a request-path rebuild; repeated
        # batch sizes come back as plan-cache hits.
        assert stats["plan_rebuilds"] == 1
        assert stats["plan_misses"] == 3  # batch sizes {1, 3, 8}
        assert stats["plan_hits"] == 3
        assert stats["plan_evictions"] == 0


class TestPressureGauges:
    """Live queue-depth / in-flight gauges the admission layer reads."""

    def _drained(self, service, deadline_s: float = 5.0) -> tuple:
        import time

        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            pressure = service.pressure()
            if pressure == (0, 0):
                return pressure
            time.sleep(0.005)
        return service.pressure()

    def test_gauges_track_queue_then_settle_to_zero(self, tmp_path):
        config, _ = make_bundle(os.path.join(tmp_path, "m.npz"),
                                tiny_student_config())
        window = np.zeros((config.history_length, config.num_variables),
                          dtype=np.float32)
        with ForecastService(str(tmp_path)) as service:
            assert service.pressure() == (0, 0)
            service.pause()
            futures = [service.submit(window) for _ in range(5)]
            assert service.queue_depth() == 5
            assert service.in_flight() == 0
            snapshot = service.snapshot()
            assert snapshot.queue_depth == 5
            assert snapshot.in_flight == 0
            assert snapshot.as_dict()["queue_depth"] == 5
            service.resume()
            for future in futures:
                future.result()
            # the futures resolve inside the batch's guarded run; the
            # gauges settle the moment its finally block exits
            assert self._drained(service) == (0, 0)

    def test_counters_restore_ignores_gauges(self, tmp_path):
        from repro.serve.service import ServiceStats

        stats = ServiceStats.from_dict(
            {"requests": 7, "queue_depth": 3, "in_flight": 2})
        assert stats.requests == 7
        # gauges are instantaneous facts about a live queue; restoring
        # them from a snapshot would fabricate phantom load
        assert stats.queue_depth == 0
        assert stats.in_flight == 0

    def test_merge_sums_gauges_across_shards(self):
        from repro.serve.service import ServiceStats

        merged = ServiceStats.merge([
            ServiceStats(queue_depth=2, in_flight=1),
            ServiceStats(queue_depth=4, in_flight=3),
        ])
        assert merged.queue_depth == 6
        assert merged.in_flight == 4

    def test_router_sums_worker_pressure(self, tmp_path):
        from repro.shard import ShardRouter

        config, _ = make_bundle(os.path.join(tmp_path, "m.npz"),
                                tiny_student_config())
        window = np.zeros((config.history_length, config.num_variables),
                          dtype=np.float32)
        with ShardRouter(str(tmp_path), workers=2) as router:
            router.pause()
            futures = [router.submit(window) for _ in range(4)]
            assert router.queue_depth() == 4
            assert router.pressure()[0] == 4
            router.resume()
            for future in futures:
                future.result()
            assert self._drained(router) == (0, 0)
