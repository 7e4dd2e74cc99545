"""Tests for the multi-tenant gateway: metering, auth, admission, HTTP.

The ordering contract under test everywhere: a request that is refused
(401/400/404/429/503) leaves tenant state bit-for-bit unchanged, and a
request that succeeds spends exactly its price — so for every tenant,
at every observable moment, ``issued == spent + reserved + remaining``.
The HTTP layer is additionally held to the stack's parity bar:
forecasts over sockets are bitwise identical to in-process
``ForecastService.predict``.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import Future
from http.client import HTTPConnection, HTTPException

import numpy as np
import pytest

from repro.core import TimeKDConfig
from repro.core.student import StudentModel
from repro.data import StandardScaler
from repro.durable import ShardedSnapshotter, read_wal, wal_paths
from repro.gateway import (
    INGEST_UNITS,
    MAX_BODY_BYTES,
    PREDICT_UNITS,
    AdmissionController,
    ApiKeyRegistry,
    Gateway,
    GatewayServer,
    KeyFileError,
    Meter,
    QuotaError,
    SaturationError,
    TokenBucket,
    write_keys_file,
)
from repro.gateway import server as gateway_server
from repro.gateway.app import INTERNAL_ERROR, NON_FINITE_FORECAST
from repro.infer import CompiledStudent
from repro.serve import ForecastService, save_student_artifact
from repro.shard import ShardRouter

L, N, M = 32, 3, 8


def gateway_config(**overrides) -> TimeKDConfig:
    base = TimeKDConfig(history_length=L, horizon=M, num_variables=N,
                        d_model=16, num_heads=2, num_layers=1, ffn_dim=32)
    return base.with_updates(**overrides) if overrides else base


def make_bundle(directory, name="ettm1-h8.npz", dataset="ETTm1",
                **overrides) -> TimeKDConfig:
    config = gateway_config(**overrides)
    student = StudentModel(config)
    student.eval()
    scaler = StandardScaler().fit(np.random.default_rng(0).normal(
        2.0, 3.0, size=(200, config.num_variables)))
    save_student_artifact(os.path.join(directory, name), student, config,
                          scaler=scaler, metadata={"dataset": dataset})
    return config


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("gateway-artifacts"))
    make_bundle(directory)
    return directory


@pytest.fixture()
def service(artifact_dir):
    with ShardRouter(artifact_dir) as router:  # the 1-worker deployment
        yield router


@pytest.fixture()
def keys_path(tmp_path) -> str:
    path = str(tmp_path / "keys.json")
    write_keys_file(path, {
        "k-acme": {"tenant": "acme", "units": 1000},
        "k-tiny": {"tenant": "tiny", "units": 9},
    })
    return path


@pytest.fixture()
def gateway(service, keys_path) -> Gateway:
    return Gateway(service, ApiKeyRegistry(keys_path))


@pytest.fixture()
def history(rng) -> np.ndarray:
    return rng.normal(size=(L, N)).astype(np.float32)


def usage_of(gateway: Gateway, tenant: str) -> dict:
    return gateway.meter.account(tenant).as_dict()


def strict_json(payload: dict) -> dict:
    """``payload`` through the transport's encoding, parsed strictly:
    ``NaN``/``Infinity`` tokens are not JSON."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(json.dumps(payload), parse_constant=refuse)


#: Exception text that must never reach a client.
SECRET = "/secret/path"


class _FailingService(ForecastService):
    """Forecasts fail with internal detail: ``submit`` raises, or (with
    ``fail_future``) returns a future that fails."""

    def __init__(self, artifact_dir, fail_future: bool = False):
        super().__init__(artifact_dir)
        self.fail_future = fail_future

    def submit(self, history, dataset=None, horizon=None,
               raw_values=False):
        if not self.fail_future:
            raise RuntimeError(SECRET)
        future: Future = Future()
        future.set_exception(RuntimeError(SECRET))
        return future


def failing_router(artifact_dir, fail_future: bool = False) -> ShardRouter:
    """A 1-worker router whose shard serves through a _FailingService,
    so both predict and the ingest path's cadence forecasts fail."""
    router = ShardRouter(artifact_dir)
    worker = router.workers[0]
    worker.service.close()
    worker.service = _FailingService(artifact_dir, fail_future)
    return router


# ----------------------------------------------------------------------
# metering
# ----------------------------------------------------------------------
class TestMeter:
    def test_reserve_commit_release_conserve_units(self):
        account = Meter().account("acme", issued=100)
        first = account.reserve(30, "predict")
        second = account.reserve(20, "ingest")
        assert (account.issued, account.reserved,
                account.remaining) == (100, 50, 50)
        first.commit()
        second.release()
        assert (account.spent, account.reserved,
                account.remaining) == (30, 0, 70)
        assert account.spent_by == {"predict": 30}
        assert account.ops_by == {"predict": 1}
        assert account.issued == account.spent + account.reserved \
            + account.remaining

    def test_overdraw_raises_and_changes_nothing(self):
        account = Meter().account("acme", issued=10)
        account.reserve(8, "predict").commit()
        with pytest.raises(QuotaError) as excinfo:
            account.reserve(4, "predict")
        assert excinfo.value.requested == 4
        assert excinfo.value.remaining == 2
        assert (account.spent, account.reserved,
                account.remaining) == (8, 0, 2)

    def test_split_commits_the_accepted_part_only(self):
        account = Meter().account("acme", issued=100)
        reservation = account.reserve(10, "ingest")
        accepted, remainder = reservation.split(7)
        accepted.commit()
        remainder.release()
        assert (account.spent, account.remaining) == (7, 93)
        with pytest.raises(ValueError):
            account.reserve(5, "ingest").split(6)

    def test_settle_is_single_shot(self):
        account = Meter().account("acme", issued=10)
        reservation = account.reserve(4, "predict")
        reservation.commit()
        reservation.commit()
        reservation.release()  # all no-ops after the first settle
        assert (account.spent, account.remaining) == (4, 6)

    def test_expand_grows_but_never_shrinks(self):
        account = Meter().account("acme", issued=10)
        account.expand(50)
        assert account.issued == 50
        account.expand(5)
        assert account.issued == 50

    def test_export_import_round_trip(self):
        meter = Meter()
        account = meter.account("acme", issued=100)
        account.reserve(12, "predict").commit()
        account.reserve(3, "ingest").commit()
        account.reserve(5, "predict")  # in flight: must not persist
        state = meter.export_state()
        restored = Meter()
        restored.import_state(json.loads(json.dumps(state)))
        usage = restored.account("acme").as_dict()
        assert usage["issued"] == 100
        assert usage["spent"] == 15
        assert usage["reserved"] == 0  # a restart releases reservations
        assert usage["remaining"] == 85
        assert usage["spent_by"] == {"predict": 12, "ingest": 3}
        assert usage["ops_by"] == {"predict": 1, "ingest": 1}


class TestTokenBucket:
    def test_acquire_refuse_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=lambda: now[0])
        assert bucket.try_acquire(3) == 0.0
        retry = bucket.try_acquire(3)  # 1 token left, needs 2 more
        assert retry == pytest.approx(1.0)
        # the refusal consumed nothing
        assert bucket.available() == pytest.approx(1.0)
        now[0] += 1.0
        assert bucket.try_acquire(3) == 0.0
        assert bucket.available() == pytest.approx(0.0)

    def test_burst_caps_the_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=5.0, clock=lambda: now[0])
        now[0] += 60.0
        assert bucket.available() == pytest.approx(5.0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# ----------------------------------------------------------------------
# key registry
# ----------------------------------------------------------------------
class TestApiKeyRegistry:
    def test_resolves_keys_with_defaults(self, keys_path):
        registry = ApiKeyRegistry(keys_path, default_rate=7.0)
        resolved = registry.authenticate("k-acme")
        assert resolved.tenant == "acme"
        assert resolved.units == 1000
        assert resolved.rate == 7.0  # file omits rate -> registry default
        assert registry.authenticate("unknown") is None
        assert registry.authenticate(None) is None
        assert registry.tenants() == ["acme", "tiny"]

    def test_hot_reload_picks_up_new_keys(self, keys_path):
        registry = ApiKeyRegistry(keys_path)
        assert registry.authenticate("k-new") is None
        write_keys_file(keys_path, {
            "k-new": {"tenant": "newco", "units": 5}})
        os.utime(keys_path, ns=(1, 1))  # force an mtime_ns change
        assert registry.authenticate("k-new").tenant == "newco"
        assert registry.authenticate("k-acme") is None  # rotated out

    def test_bad_edit_keeps_previous_keys(self, keys_path):
        registry = ApiKeyRegistry(keys_path)
        with open(keys_path, "w") as handle:
            handle.write("{ not json")
        os.utime(keys_path, ns=(2, 2))
        assert registry.authenticate("k-acme").tenant == "acme"

    def test_initial_bad_file_refuses_to_start(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"version": 99, "keys": {}}, handle)
        with pytest.raises(KeyFileError):
            ApiKeyRegistry(path)
        with pytest.raises(KeyFileError):
            ApiKeyRegistry(str(tmp_path / "missing.json"))

    def test_write_validates_before_publishing(self, tmp_path):
        path = str(tmp_path / "keys.json")
        with pytest.raises(KeyFileError):
            write_keys_file(path, {"k": {"tenant": "t", "rate": 0}})
        with pytest.raises(KeyFileError):
            write_keys_file(path, {"k": {"units": 5}})  # no tenant
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class _FakePressure:
    def __init__(self, depth=0, flight=0):
        self.depth, self.flight = depth, flight

    def pressure(self):
        return self.depth, self.flight


class TestAdmissionController:
    def test_admits_under_and_sheds_over_the_bound(self):
        fake = _FakePressure(depth=3, flight=2)
        admission = AdmissionController(fake, max_pending=6)
        admission.admit()  # 5 + 1 <= 6
        assert admission.headroom() == 1
        fake.flight = 3
        with pytest.raises(SaturationError) as excinfo:
            admission.admit()
        assert excinfo.value.load == 6
        assert excinfo.value.limit == 6
        assert excinfo.value.retry_after == 1.0
        assert admission.headroom() == 0

    def test_cost_counts_against_the_bound(self):
        admission = AdmissionController(_FakePressure(), max_pending=4)
        admission.admit(cost=4)
        with pytest.raises(SaturationError):
            admission.admit(cost=5)


# ----------------------------------------------------------------------
# gateway handlers (in process — the same path HTTP drives)
# ----------------------------------------------------------------------
class TestGatewayHandlers:
    def test_predict_bitwise_equals_direct_service(self, gateway,
                                                   service, history):
        tenant_key = gateway.authenticate("k-acme")
        response = gateway.predict(
            tenant_key, {"history": history.tolist()})
        assert response.status == 200
        direct = service.predict(history)
        # float32 -> JSON-able floats -> float32 is exact, so the HTTP
        # representation can (and must) round-trip bitwise.
        via_json = np.asarray(
            json.loads(json.dumps(response.payload))["forecast"],
            dtype=np.float32)
        np.testing.assert_array_equal(via_json, direct)
        assert response.payload["units"] == {
            "spent": PREDICT_UNITS, "remaining": 1000 - PREDICT_UNITS}

    @pytest.mark.parametrize("payload, status", [
        ({}, 400),                                   # missing history
        ({"history": [[1.0], [1.0, 2.0]]}, 400),     # ragged
        ({"history": [1.0, 2.0]}, 400),              # wrong ndim
        ({"history": [[1.0, 2.0, 3.0]]}, 400),       # wrong window len
        ({"history": None, "dataset": 7}, 400),      # bad dataset type
    ])
    def test_invalid_predicts_cost_nothing(self, gateway, payload,
                                           status, history):
        if payload.get("history") is None and "dataset" in payload:
            payload["history"] = history.tolist()
        tenant_key = gateway.authenticate("k-acme")
        response = gateway.predict(tenant_key, payload)
        assert response.status == status
        usage = usage_of(gateway, "acme")
        assert usage["spent"] == 0 and usage["reserved"] == 0
        assert gateway.stats.invalid == 1

    def test_unknown_model_404(self, gateway, history):
        tenant_key = gateway.authenticate("k-acme")
        response = gateway.predict(tenant_key, {
            "history": history.tolist(), "dataset": "nope"})
        assert response.status == 404
        assert usage_of(gateway, "acme")["spent"] == 0

    def test_quota_exhaustion_is_exact_and_stateless(self, gateway,
                                                     history):
        tenant_key = gateway.authenticate("k-tiny")  # 9 issued units
        payload = {"history": history.tolist()}
        assert gateway.predict(tenant_key, payload).status == 200
        assert gateway.predict(tenant_key, payload).status == 200
        refused = gateway.predict(tenant_key, payload)
        assert refused.status == 429
        assert refused.retry_after is not None
        usage = usage_of(gateway, "tiny")
        assert usage["spent"] == 2 * PREDICT_UNITS
        assert usage["remaining"] == 9 - 2 * PREDICT_UNITS
        assert usage["reserved"] == 0
        assert gateway.stats.shed_quota == 1
        # shedding is idempotent: refusals never erode the pool
        for _ in range(5):
            assert gateway.predict(tenant_key, payload).status == 429
        assert usage_of(gateway, "tiny") == usage

    def test_rate_limit_sheds_with_retry_after(self, service, tmp_path,
                                               history):
        keys = str(tmp_path / "slow.json")
        write_keys_file(keys, {"k-slow": {
            "tenant": "slow", "units": 1000, "rate": 1.0,
            "burst": float(PREDICT_UNITS)}})
        gateway = Gateway(service, ApiKeyRegistry(keys))
        tenant_key = gateway.authenticate("k-slow")
        payload = {"history": history.tolist()}
        assert gateway.predict(tenant_key, payload).status == 200
        refused = gateway.predict(tenant_key, payload)
        assert refused.status == 429
        assert refused.retry_after > 0
        usage = usage_of(gateway, "slow")
        assert usage["spent"] == PREDICT_UNITS  # the shed one is free
        assert usage["reserved"] == 0
        assert gateway.stats.shed_rate == 1

    def test_saturation_sheds_before_touching_quota(self, service,
                                                    keys_path, history):
        gateway = Gateway(service, ApiKeyRegistry(keys_path),
                          max_pending=1)
        tenant_key = gateway.authenticate("k-acme")
        service.pause()
        try:
            blocker = service.submit(history)  # fills the whole bound
            response = gateway.predict(
                tenant_key, {"history": history.tolist()})
            assert response.status == 503
            assert response.retry_after is not None
            usage = usage_of(gateway, "acme")
            assert usage["spent"] == 0 and usage["reserved"] == 0
            assert gateway.stats.shed_saturated == 1
        finally:
            service.resume()
        blocker.result()

    def test_ingest_prices_per_row_and_triggers_forecasts(
            self, gateway, service, rng):
        tenant_key = gateway.authenticate("k-acme")
        run = rng.normal(size=(L, N))
        response = gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": 0.0, "values": run.tolist(),
            "wait": True})
        assert response.status == 200
        assert response.payload["accepted"] == L
        assert response.payload["ready"] is True
        assert response.payload["forecast_triggered"] is True
        forecast = np.asarray(response.payload["forecast"],
                              dtype=np.float32)
        # the cadence forecast is the service forward of this window
        np.testing.assert_array_equal(
            forecast, service.predict(run.astype(np.float32)))
        assert response.payload["units"]["spent"] == L * INGEST_UNITS
        single = gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": float(L),
            "values": run[0].tolist()})
        assert single.status == 200
        assert single.payload["accepted"] == 1
        usage = usage_of(gateway, "acme")
        assert usage["spent"] == (L + 1) * INGEST_UNITS
        assert usage["spent_by"] == {"ingest": L + 1}

    def test_rejected_ticks_cost_nothing(self, gateway, rng):
        tenant_key = gateway.authenticate("k-acme")
        tick = rng.normal(size=N).tolist()
        assert gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": 0.0,
            "values": tick}).status == 200
        # gap under the default "error" policy: refused before any
        # state mutation, so no units move and the stream is intact
        gap = gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": 500.0, "values": tick})
        assert gap.status == 400
        stale = gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": -1.0, "values": tick})
        assert stale.status == 400
        usage = usage_of(gateway, "acme")
        assert usage["spent"] == 1 * INGEST_UNITS
        assert usage["reserved"] == 0
        forecaster = gateway.forecaster_for()
        assert forecaster.state(("acme", "s1")).count == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e39])
    def test_unrepresentable_predict_costs_nothing(self, gateway, history,
                                                   bad):
        # 1e39 is finite JSON but inf in the student's float32
        window = history.tolist()
        window[3][1] = bad
        tenant_key = gateway.authenticate("k-acme")
        gateway.account_for(tenant_key)  # the pool at its issued size
        response = gateway.predict(tenant_key, {"history": window})
        assert response.status == 400
        assert "non-finite" in response.payload["error"]
        usage = usage_of(gateway, "acme")
        assert usage["remaining"] == 1000 and usage["reserved"] == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), 1e39])
    def test_unrepresentable_ticks_change_nothing(self, gateway, rng, bad):
        tenant_key = gateway.authenticate("k-acme")
        tick = rng.normal(size=N).tolist()
        assert gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": 0.0,
            "values": tick}).status == 200
        forecaster = gateway.forecaster_for()

        def observed():
            return (forecaster.state(("acme", "s1")).count, forecaster.seq,
                    usage_of(gateway, "acme")["remaining"])

        before = observed()
        tick[1] = bad
        response = gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": 1.0, "values": [tick, tick]})
        assert response.status == 400
        assert "non-finite" in response.payload["error"]
        assert observed() == before

    def test_nan_forecasts_never_half_ingest(self, artifact_dir, keys_path,
                                             tmp_path, monkeypatch):
        # A student answering NaN must not stop ticks from landing
        # whole: every tick is answered 200, and ring, seq and WAL agree
        # and recover bitwise.
        def nan_predict(self, history):
            return np.full((len(history), M, N), np.nan, dtype=np.float32)

        monkeypatch.setattr(CompiledStudent, "predict", nan_predict)
        snapdir = str(tmp_path / "snaps")
        ticks = np.random.default_rng(0).normal(size=(L + 2 * M, N))
        key = ("acme", "s1")
        with ShardRouter(artifact_dir) as router:
            gateway = Gateway(router, ApiKeyRegistry(keys_path))
            forecaster = gateway.forecaster_for()
            tenant_key = gateway.authenticate("k-acme")
            with ShardedSnapshotter(forecaster, snapdir, every=0):
                for index, tick in enumerate(ticks):
                    response = gateway.ingest(tenant_key, {
                        "series": "s1", "timestamp": float(index),
                        "values": tick.tolist(), "wait": True})
                    assert response.status == 200, response.payload
            assert np.isnan(forecaster.latest(key)).all()
            records = [record for _, path in wal_paths(snapdir, shard=0)
                       for record in read_wal(path)[1]]
            ring = forecaster.state(key)
            assert ring.count == forecaster.seq == len(records) \
                == len(ticks)
            with ShardRouter(artifact_dir) as fresh_router:
                recovered = Gateway(fresh_router, ApiKeyRegistry(
                    keys_path)).forecaster_for()
                recovered.restore_from(snapdir)
                assert recovered.seq == forecaster.seq
                held = min(ring.count, ring.capacity)
                assert recovered.state(key).tail(held).tobytes() == \
                    ring.tail(held).tobytes()

    def test_tick_taken_before_a_failed_submit_is_sequenced_and_logged(
            self, artifact_dir, keys_path, tmp_path):
        # The 32nd tick is the first with a full window; its cadence
        # forecast reaches a closed service.  The ring has taken the
        # tick by then, so it is sequenced, logged and charged, and the
        # failed forecast is reported, not a 500.
        snapdir = str(tmp_path / "snaps")
        ticks = np.random.default_rng(0).normal(size=(L, N))
        key = ("acme", "s1")
        with ShardRouter(artifact_dir) as router:
            gateway = Gateway(router, ApiKeyRegistry(keys_path))
            forecaster = gateway.forecaster_for()
            tenant_key = gateway.authenticate("k-acme")
            with ShardedSnapshotter(forecaster, snapdir, every=0):
                for index, tick in enumerate(ticks[:-1]):
                    assert gateway.ingest(tenant_key, {
                        "series": "s1", "timestamp": float(index),
                        "values": tick.tolist()}).status == 200
                router.workers[0].service.close()
                response = gateway.ingest(tenant_key, {
                    "series": "s1", "timestamp": float(L - 1),
                    "values": ticks[-1].tolist(), "wait": True})
            assert response.status == 200, response.payload
            assert response.payload["forecast_triggered"] is True
            assert response.payload["forecast_error"] == INTERNAL_ERROR
            assert usage_of(gateway, "acme")["spent"] == L * INGEST_UNITS
            records = [record for _, path in wal_paths(snapdir, shard=0)
                       for record in read_wal(path)[1]]
            ring = forecaster.state(key)
            assert ring.count == forecaster.seq == len(records) == L
            with ShardRouter(artifact_dir) as fresh_router:
                recovered = Gateway(fresh_router, ApiKeyRegistry(
                    keys_path)).forecaster_for()
                recovered.restore_from(snapdir)
                assert recovered.seq == L
                assert recovered.state(key)._buffer.tobytes() == \
                    ring._buffer.tobytes()

    def test_failing_automatic_checkpoint_fails_no_tick(
            self, artifact_dir, keys_path, tmp_path, monkeypatch):
        # Checkpoints every 4 ticks; the first is published, then the
        # disk fills.  Every tick still answers 200 and is charged, each
        # failed checkpoint is counted once and retried a full interval
        # later, and recovery from the published snapshot plus the
        # unrotated WAL segment is bitwise.
        from repro.durable import snapshot as snapshot_module

        write_snapshot = snapshot_module.write_snapshot
        attempts = []

        def full_disk_after_first(path, state, **kwargs):
            attempts.append(int(state["seq"]))
            if len(attempts) > 1:
                raise OSError(28, "No space left on device", path)
            return write_snapshot(path, state, **kwargs)

        monkeypatch.setattr(snapshot_module, "write_snapshot",
                            full_disk_after_first)
        snapdir = str(tmp_path / "snaps")
        ticks = np.random.default_rng(0).normal(size=(14, N))
        key = ("acme", "s1")
        with ShardRouter(artifact_dir) as router:
            gateway = Gateway(router, ApiKeyRegistry(keys_path))
            forecaster = gateway.forecaster_for()
            tenant_key = gateway.authenticate("k-acme")
            with ShardedSnapshotter(forecaster, snapdir,
                                    every=4) as snapshotter:
                statuses = [gateway.ingest(tenant_key, {
                    "series": "s1", "timestamp": float(index),
                    "values": tick.tolist()}).status
                    for index, tick in enumerate(ticks)]
                assert statuses == [200] * len(ticks)
                assert attempts == [4, 8, 12]
                assert snapshotter.checkpoint_failures == 2
                assert snapshotter.snapshotters[0].checkpoint_failures == 2
            assert usage_of(gateway, "acme")["spent"] == \
                len(ticks) * INGEST_UNITS
            segments = {base: len(read_wal(path)[1])
                        for base, path in wal_paths(snapdir, shard=0)}
            assert segments == {0: 4, 4: len(ticks) - 4}
            ring = forecaster.state(key)
            assert ring.count == forecaster.seq == len(ticks)
            with ShardRouter(artifact_dir) as fresh_router:
                recovered = Gateway(fresh_router, ApiKeyRegistry(
                    keys_path)).forecaster_for()
                recovered.restore_from(snapdir)
                assert recovered.seq == len(ticks)
                assert recovered.state(key)._buffer.tobytes() == \
                    ring._buffer.tobytes()

    def test_overflowing_forward_is_refused_in_strict_json(self, gateway,
                                                           rng):
        # Finite in float32, yet the forward overflows: the forecast is
        # NaN.  predict refuses it without charging; ingest keeps the
        # ticks and reports the forecast as an error, not as NaN.
        tenant_key = gateway.authenticate("k-acme")
        history = rng.normal(size=(L, N)) * 1e30
        assert np.isfinite(history.astype(np.float32)).all()
        before = usage_of(gateway, "acme")
        predicted = gateway.predict(tenant_key, {"history": history.tolist()})
        ingested = gateway.ingest(tenant_key, {
            "series": "s1", "timestamp": 0.0, "values": history.tolist(),
            "wait": True})
        assert predicted.status == 400
        assert strict_json(predicted.payload) == {
            "error": NON_FINITE_FORECAST}
        assert gateway.stats.invalid == 1
        assert ingested.status == 200
        body = strict_json(ingested.payload)
        assert body["forecast_error"] == NON_FINITE_FORECAST
        assert "forecast" not in body
        assert usage_of(gateway, "acme")["spent"] == \
            before["spent"] + L * INGEST_UNITS

    @pytest.mark.parametrize("payload", [
        {"timestamp": 0.0, "values": [1.0, 2.0, 3.0]},     # no series
        {"series": "", "timestamp": 0.0, "values": [1.0]},  # empty name
        {"series": "s", "values": [1.0, 2.0, 3.0]},         # no stamp
        {"series": "s", "timestamp": True, "values": [1.0]},
        {"series": "s", "timestamp": 0.0},                  # no values
        {"series": "s", "timestamp": 0.0, "values": []},    # empty
        {"series": "s", "timestamp": 0.0,
         "values": [[[1.0]]]},                              # 3-D
    ])
    def test_malformed_ingest_is_400(self, gateway, payload):
        tenant_key = gateway.authenticate("k-acme")
        assert gateway.ingest(tenant_key, payload).status == 400
        assert usage_of(gateway, "acme")["spent"] == 0

    def test_tenants_share_models_not_streams(self, gateway, rng):
        tick = rng.normal(size=N).tolist()
        for key in ("k-acme", "k-tiny"):
            tenant_key = gateway.authenticate(key)
            assert gateway.ingest(tenant_key, {
                "series": "shared-name", "timestamp": 0.0,
                "values": tick}).status == 200
        forecaster = gateway.forecaster_for()
        assert forecaster.state(("acme", "shared-name")).count == 1
        assert forecaster.state(("tiny", "shared-name")).count == 1

    def test_usage_is_own_tenant_only(self, gateway):
        acme = gateway.authenticate("k-acme")
        assert gateway.usage(acme, "acme").status == 200
        refused = gateway.usage(acme, "tiny")
        assert refused.status == 403

    def test_draining_refuses_everything_but_keeps_state(self, gateway,
                                                         history):
        tenant_key = gateway.authenticate("k-acme")
        gateway.begin_drain()
        for response in (
                gateway.predict(tenant_key, {"history": history.tolist()}),
                gateway.ingest(tenant_key, {"series": "s",
                                            "timestamp": 0.0,
                                            "values": [0.0] * N}),
                gateway.stats_view(),
                gateway.health()):
            assert response.status == 503
        assert gateway.health().payload["status"] == "draining"
        assert usage_of(gateway, "acme")["spent"] == 0

    def test_snapshot_composes_all_layers(self, gateway, history, rng):
        tenant_key = gateway.authenticate("k-acme")
        gateway.predict(tenant_key, {"history": history.tolist()})
        gateway.ingest(tenant_key, {"series": "s", "timestamp": 0.0,
                                    "values": rng.normal(size=N).tolist()})
        snapshot = gateway.snapshot()
        assert snapshot["gateway"]["predicts"] == 1
        assert snapshot["gateway"]["ingested_ticks"] == 1
        assert snapshot["service"]["requests"] >= 1
        assert snapshot["streams"]["ETTm1:8"]["ticks"] == 1
        assert snapshot["tenants"]["acme"]["spent"] == \
            PREDICT_UNITS + INGEST_UNITS
        json.dumps(snapshot)  # the whole view must be JSON-clean

    def test_usage_survives_a_restart(self, service, keys_path, tmp_path,
                                      history):
        usage_path = str(tmp_path / "usage.json")
        gateway = Gateway(service, ApiKeyRegistry(keys_path))
        tenant_key = gateway.authenticate("k-acme")
        gateway.predict(tenant_key, {"history": history.tolist()})
        gateway.save_usage(usage_path)

        reborn = Gateway(service, ApiKeyRegistry(keys_path))
        assert reborn.load_usage(usage_path) is True
        usage = usage_of(reborn, "acme")
        assert usage["spent"] == PREDICT_UNITS
        assert usage["issued"] == 1000
        assert usage["remaining"] == 1000 - PREDICT_UNITS
        assert Gateway(service, ApiKeyRegistry(keys_path)).load_usage(
            str(tmp_path / "never-written.json")) is False

    @pytest.mark.parametrize("fail_future", [False, True])
    def test_500_never_leaks_exception_text(self, artifact_dir, keys_path,
                                            rng, fail_future):
        with failing_router(artifact_dir, fail_future) as failing:
            gateway = Gateway(failing, ApiKeyRegistry(keys_path))
            tenant_key = gateway.authenticate("k-acme")
            predicted = gateway.predict(tenant_key, {
                "history": rng.normal(size=(L, N)).tolist()})
            ingested = gateway.ingest(tenant_key, {
                "series": "s", "timestamp": 0.0,
                "values": rng.normal(size=(L, N)).tolist(), "wait": True})
        assert predicted.status == 500
        assert SECRET not in json.dumps(predicted.payload)
        assert SECRET not in json.dumps(ingested.payload)
        # Whether submit raises or its future fails, the ticks landed:
        # only the cadence forecast failed.
        assert ingested.status == 200
        assert ingested.payload["forecast_triggered"] is True
        assert ingested.payload["forecast_error"] == INTERNAL_ERROR
        assert gateway.stats.errors == 1
        assert usage_of(gateway, "acme")["spent"] == L * INGEST_UNITS


# ----------------------------------------------------------------------
# quota exactness under concurrency
# ----------------------------------------------------------------------
class TestConcurrentQuota:
    def test_spent_plus_remaining_is_exact_under_threads(
            self, service, tmp_path, history):
        issued = 10 * PREDICT_UNITS + 2  # 10 grants, then refusals
        keys = str(tmp_path / "keys.json")
        write_keys_file(keys, {"k": {"tenant": "t", "units": issued,
                                     "rate": 1e9, "burst": 1e9}})
        gateway = Gateway(service, ApiKeyRegistry(keys))
        tenant_key = gateway.authenticate("k")
        statuses: list[int] = []
        lock = threading.Lock()

        def worker():
            response = gateway.predict(
                tenant_key, {"history": history.tolist()})
            with lock:
                statuses.append(response.status)

        threads = [threading.Thread(target=worker) for _ in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        granted = statuses.count(200)
        assert granted == 10
        assert statuses.count(429) == 24 - granted
        usage = usage_of(gateway, "t")
        assert usage["spent"] == granted * PREDICT_UNITS
        assert usage["reserved"] == 0
        assert usage["spent"] + usage["remaining"] == issued


# ----------------------------------------------------------------------
# HTTP end to end (real sockets)
# ----------------------------------------------------------------------
def http(url: str, key: str | None = None, payload=None, raw: bytes
         | None = None):
    request = urllib.request.Request(url)
    if key is not None:
        request.add_header("Authorization", f"Bearer {key}")
    data = raw
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    try:
        with urllib.request.urlopen(request, data=data, timeout=30) as r:
            return r.status, json.loads(r.read()), dict(r.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture()
def live(service, keys_path):
    gateway = Gateway(service, ApiKeyRegistry(keys_path))
    with GatewayServer(gateway).start() as server:
        yield gateway, server.url


class TestGatewayHTTP:
    def test_forecast_over_sockets_is_bitwise(self, live, service,
                                              history):
        _, base = live
        direct = service.predict(history)
        status, body, _ = http(base + "/v1/predict", key="k-acme",
                               payload={"history": history.tolist()})
        assert status == 200
        np.testing.assert_array_equal(
            np.asarray(body["forecast"], dtype=np.float32), direct)
        assert body["dataset"] == "ETTm1" and body["horizon"] == M

    def test_auth_is_enforced_per_request(self, live):
        gateway, base = live
        status, _, headers = http(base + "/v1/stats")
        assert status == 401
        assert "Bearer" in headers.get("WWW-Authenticate", "")
        assert http(base + "/v1/stats", key="wrong")[0] == 401
        assert http(base + "/v1/stats", key="k-acme")[0] == 200
        assert gateway.stats.unauthorized == 2

    def test_healthz_needs_no_key(self, live):
        _, base = live
        status, body, _ = http(base + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert {"queue_depth", "in_flight", "headroom"} <= set(body)

    def test_usage_endpoint_and_cross_tenant_403(self, live, history):
        _, base = live
        http(base + "/v1/predict", key="k-acme",
             payload={"history": history.tolist()})
        status, body, _ = http(base + "/v1/tenants/acme/usage",
                               key="k-acme")
        assert status == 200
        assert body["spent"] == PREDICT_UNITS
        assert http(base + "/v1/tenants/acme/usage", key="k-tiny")[0] \
            == 403

    def test_quota_429_carries_retry_after_header(self, live, history):
        _, base = live
        payload = {"history": history.tolist()}
        for _ in range(2):
            assert http(base + "/v1/predict", key="k-tiny",
                        payload=payload)[0] == 200
        status, body, headers = http(base + "/v1/predict", key="k-tiny",
                                     payload=payload)
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert body["remaining"] == 9 - 2 * PREDICT_UNITS

    def test_ingest_and_stats_routes(self, live, rng):
        _, base = live
        run = rng.normal(size=(L, N))
        status, body, _ = http(base + "/v1/ingest", key="k-acme",
                               payload={"series": "s", "timestamp": 0.0,
                                        "values": run.tolist(),
                                        "wait": True})
        assert status == 200
        assert body["forecast_triggered"] is True
        assert np.asarray(body["forecast"]).shape == (M, N)
        status, body, _ = http(base + "/v1/stats", key="k-acme")
        assert status == 200
        assert body["gateway"]["ingested_ticks"] == L
        assert body["streams"]["ETTm1:8"]["series"] == 1

    def test_malformed_requests_get_clean_errors(self, live):
        _, base = live
        assert http(base + "/v1/predict", key="k-acme",
                    raw=b"not json")[0] == 400
        assert http(base + "/v1/nowhere", key="k-acme",
                    payload={})[0] == 404
        assert http(base + "/nope")[0] == 404

    def test_unrepresentable_values_are_400_over_sockets(self, live,
                                                          history, rng):
        gateway, base = live
        window = history.tolist()
        window[0][0] = float("nan")  # json.dumps writes a NaN token
        status, body, _ = http(base + "/v1/predict", key="k-acme",
                               payload={"history": window})
        assert status == 400 and "non-finite" in body["error"]
        tick = rng.normal(size=N).tolist()
        assert http(base + "/v1/ingest", key="k-acme", payload={
            "series": "s", "timestamp": 0.0, "values": tick})[0] == 200
        tick[2] = 1e39
        status, body, _ = http(base + "/v1/ingest", key="k-acme", payload={
            "series": "s", "timestamp": 1.0, "values": tick})
        assert status == 400 and "non-finite" in body["error"]
        forecaster = gateway.forecaster_for()
        assert forecaster.state(("acme", "s")).count == 1
        assert forecaster.seq == 1
        assert usage_of(gateway, "acme")["remaining"] == 1000 - INGEST_UNITS

    def test_500_never_leaks_exception_text(self, artifact_dir, keys_path,
                                            history, monkeypatch):
        with _FailingService(artifact_dir) as failing:
            gateway = Gateway(failing, ApiKeyRegistry(keys_path))
            with GatewayServer(gateway).start() as server:
                status, body, _ = http(
                    server.url + "/v1/predict", key="k-acme",
                    payload={"history": history.tolist()})
                assert status == 500
                assert SECRET not in json.dumps(body)
                # a handler that raises outright is caught by the
                # transport, which must not echo the text either
                def explode():
                    raise RuntimeError(SECRET)

                monkeypatch.setattr(gateway, "stats_view", explode)
                status, body, _ = http(server.url + "/v1/stats",
                                       key="k-acme")
                assert status == 500
                assert SECRET not in json.dumps(body)

    def test_draining_gateway_sheds_with_503(self, live, history):
        gateway, base = live
        gateway.begin_drain()
        status, _, headers = http(base + "/v1/predict", key="k-acme",
                                  payload={"history": history.tolist()})
        assert status == 503
        assert "Retry-After" in headers
        assert http(base + "/healthz")[0] == 503

    def test_concurrent_http_quota_is_exact(self, live, history):
        _, base = live
        statuses: list[int] = []
        lock = threading.Lock()

        def worker():
            status, _, _ = http(base + "/v1/predict", key="k-tiny",
                                payload={"history": history.tolist()})
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # 9 issued units, PREDICT_UNITS each: exactly 2 can ever win
        assert statuses.count(200) == 2
        assert statuses.count(429) == 6
        status, body, _ = http(base + "/v1/tenants/tiny/usage",
                               key="k-tiny")
        assert status == 200
        assert body["spent"] == 2 * PREDICT_UNITS
        assert body["reserved"] == 0
        assert body["spent"] + body["remaining"] == 9


# ----------------------------------------------------------------------
# HTTP/1.1 keep-alive: one write per response, reuse, refusals, drain
# ----------------------------------------------------------------------
#: A horizon whose forecast JSON is far over the 8 KiB a buffered
#: ``wfile`` would hold.
LONG = 512
#: Join timeout for ``GatewayServer.close``: a hang guard, far below the
#: handler timeout the drain tests set, never a latency bound.
HANG_GUARD_S = 30.0


class _Connection(HTTPConnection):
    """Counts the sockets it opens, so keep-alive reuse is observable."""

    opened = 0

    def connect(self):
        super().connect()
        self.opened += 1


def connect(base: str) -> _Connection:
    parts = urllib.parse.urlsplit(base)
    return _Connection(parts.hostname, parts.port, timeout=30)


def exchange(connection, method: str, path: str, key: str | None = None,
             payload=None, headers=None, raw: bytes | None = None):
    """One request on ``connection``: (response, raw body bytes)."""
    headers = dict(headers or {})
    if key is not None:
        headers["Authorization"] = f"Bearer {key}"
    if payload is not None:
        raw = json.dumps(payload).encode("utf-8")
    connection.request(method, path, raw, headers)
    response = connection.getresponse()
    return response, response.read()


def raw_request(history, key: str = "k-acme") -> bytes:
    body = json.dumps({"history": history.tolist()}).encode("utf-8")
    return (f"POST /v1/predict HTTP/1.1\r\nHost: gateway\r\n"
            f"Authorization: Bearer {key}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


def read_until_closed(sock) -> list[tuple[int, bytes]]:
    """Every (status, body) the server sends before it closes ``sock``."""
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    replies = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        headers = dict(line.split(b": ", 1) for line in lines[1:])
        length = int(headers[b"Content-Length"])
        replies.append((int(lines[0].split()[1]), data[:length]))
        data = data[length:]
    return replies


@pytest.fixture()
def wire(monkeypatch) -> list:
    """Every write a gateway handler makes to its socket, in order."""
    writes: list[bytes] = []
    setup = gateway_server._Handler.setup

    def counting_setup(handler):
        setup(handler)
        write = handler.wfile.write

        def counted(data):
            writes.append(bytes(data))
            return write(data)

        handler.wfile.write = counted

    monkeypatch.setattr(gateway_server._Handler, "setup", counting_setup)
    return writes


@pytest.fixture(scope="module")
def two_horizon_dir(tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("gateway-two-horizons"))
    make_bundle(directory)
    make_bundle(directory, name=f"ettm1-h{LONG}.npz", horizon=LONG)
    return directory


def assert_forecast(raw: bytes, expected) -> None:
    np.testing.assert_array_equal(
        np.asarray(json.loads(raw)["forecast"], dtype=np.float32), expected)


class TestKeepAlive:
    @pytest.mark.parametrize("key, horizon, status", [
        ("k-acme", M, 200),      # a predict
        ("k-nobody", M, 401),    # a refusal sent before the body is read
        ("k-acme", LONG, 200),   # a body over 8 KiB
    ])
    def test_each_response_is_one_socket_write(
            self, two_horizon_dir, keys_path, wire, history, key, horizon,
            status):
        with ShardRouter(two_horizon_dir) as router:
            gateway = Gateway(router, ApiKeyRegistry(keys_path))
            with GatewayServer(gateway).start() as server:
                connection = connect(server.url)
                try:
                    response, raw = exchange(
                        connection, "POST", "/v1/predict", key,
                        {"history": history.tolist(), "horizon": horizon})
                finally:
                    connection.close()
            expected = router.predict(history, horizon=horizon)
        assert response.status == status
        assert len(wire) == 1, [len(write) for write in wire]
        assert wire[0].startswith(f"HTTP/1.1 {status} ".encode("ascii"))
        assert wire[0].endswith(b"\r\n\r\n" + raw)
        if status == 200:
            assert_forecast(raw, expected)
        if horizon == LONG:
            assert len(raw) > 8 * 1024

    def test_requests_share_one_connection_bitwise(self, live, service,
                                                   rng):
        _, base = live
        connection = connect(base)
        try:
            for index in range(8):
                history = rng.normal(size=(L, N)).astype(np.float32)
                response, raw = exchange(connection, "POST", "/v1/predict",
                                         "k-acme",
                                         {"history": history.tolist()})
                assert response.status == 200
                assert_forecast(raw, service.predict(history))
                if index == 3:
                    # Refusals sent after the body was read (or with no
                    # body) leave the connection open.
                    response, _ = exchange(connection, "GET", "/v1/stats")
                    assert response.status == 401
                    response, _ = exchange(connection, "POST",
                                           "/v1/predict", "k-acme",
                                           raw=b"not json")
                    assert response.status == 400
        finally:
            connection.close()
        assert connection.opened == 1

    @pytest.mark.parametrize("path, key, headers, status", [
        ("/v1/predict", "k-nobody", {}, 401),
        ("/v1/nowhere", "k-acme", {}, 404),
        ("/v1/predict", "k-acme", {"Content-Length": "many"}, 411),
        ("/v1/predict", "k-acme", {"Content-Length": "-1"}, 411),
        ("/v1/predict", "k-acme",
         {"Content-Length": str(MAX_BODY_BYTES + 1)}, 413),
    ])
    def test_refusal_before_the_body_closes_the_connection(
            self, live, service, history, path, key, headers, status):
        _, base = live
        connection = connect(base)
        payload = {"history": history.tolist()}
        try:
            response, _ = exchange(connection, "POST", path, key, payload,
                                   headers)
            assert response.status == status
            assert response.getheader("Connection") == "close"
            # The unread body must not be parsed as the next request.
            response, raw = exchange(connection, "POST", "/v1/predict",
                                     "k-acme", payload)
        finally:
            connection.close()
        assert response.status == 200
        assert_forecast(raw, service.predict(history))
        assert connection.opened == 2


class TestGracefulDrain:
    @pytest.fixture(autouse=True)
    def slow_handler_timeout(self, monkeypatch):
        # Far above HANG_GUARD_S: a close() that waited for an idle
        # handler to time out would trip the guard.
        monkeypatch.setattr(gateway_server._Handler, "timeout", 600.0)

    @staticmethod
    def stop(server: GatewayServer, closer: threading.Thread,
             *clients) -> None:
        """Close the clients (freeing any handler a failing close() is
        waiting on), then make sure the server has stopped."""
        for client in clients:
            client.close()
        if closer.ident is None:
            server.close()
        else:
            closer.join()

    def test_close_ends_idle_connections(self, service, keys_path,
                                         history):
        server = GatewayServer(
            Gateway(service, ApiKeyRegistry(keys_path))).start()
        closer = threading.Thread(target=server.close)
        silent = socket.create_connection((server.host, server.port),
                                          timeout=30)
        kept = _Connection(server.host, server.port, timeout=30)
        try:
            response, _ = exchange(kept, "POST", "/v1/predict", "k-acme",
                                   {"history": history.tolist()})
            assert response.status == 200  # kept alive, now idle
            closer.start()
            closer.join(timeout=HANG_GUARD_S)
            assert not closer.is_alive(), "close() waited on idle handlers"
            assert silent.recv(1) == b""
            assert kept.sock.recv(1) == b""
        finally:
            self.stop(server, closer, silent, kept)

    def test_drain_answers_in_flight_and_queued_requests(
            self, service, keys_path, history, monkeypatch):
        gateway = Gateway(service, ApiKeyRegistry(keys_path))
        entered, release, draining = (threading.Event(), threading.Event(),
                                      threading.Event())
        predict, begin_drain = gateway.predict, gateway.begin_drain

        def held_predict(tenant_key, payload):
            response = predict(tenant_key, payload)
            entered.set()
            release.wait(timeout=HANG_GUARD_S)
            return response

        def signalled_begin_drain():
            begin_drain()
            draining.set()

        monkeypatch.setattr(gateway, "predict", held_predict)
        monkeypatch.setattr(gateway, "begin_drain", signalled_begin_drain)
        server = GatewayServer(gateway).start()
        closer = threading.Thread(target=server.close)
        client = socket.create_connection((server.host, server.port),
                                          timeout=30)
        try:
            client.sendall(raw_request(history))
            assert entered.wait(timeout=HANG_GUARD_S)
            # Queued behind the in-flight request and read after the
            # drain began: answered 503, then the connection ends.
            client.sendall(raw_request(history))
            closer.start()
            assert draining.wait(timeout=HANG_GUARD_S)
            release.set()
            replies = read_until_closed(client)
            closer.join(timeout=HANG_GUARD_S)
            assert not closer.is_alive(), "close() waited on idle handlers"
        finally:
            release.set()
            self.stop(server, closer, client)
        assert [status for status, _ in replies] == [200, 503]
        assert_forecast(replies[0][1], service.predict(history))

    def test_drain_races_concurrent_clients(self, service, tmp_path,
                                            history):
        # More clients than cores, a tiny switch interval, and a drain
        # that lands while requests are in flight: close() must still
        # end every connection, and each answer must be whole.  The
        # model is loaded first: concurrent cold loads each parse .npy
        # headers with ast.literal_eval, which CPython 3.11 does not
        # make thread-safe at this switch interval (a SystemError).
        service.predict(history)
        keys = str(tmp_path / "stress-keys.json")
        write_keys_file(keys, {"k-stress": {
            "tenant": "stress", "units": 10**9, "rate": 1e9,
            "burst": 1e9}})
        server = GatewayServer(
            Gateway(service, ApiKeyRegistry(keys))).start()
        closer = threading.Thread(target=server.close)
        served, release = threading.Event(), threading.Event()
        statuses: list[int] = []
        lock = threading.Lock()
        payload = {"history": history.tolist()}

        def client():
            connection = _Connection(server.host, server.port, timeout=30)
            try:
                for _ in range(20):
                    try:
                        response, raw = exchange(
                            connection, "POST", "/v1/predict", "k-stress",
                            payload)
                    except (OSError, HTTPException):
                        break  # the drain ended this connection
                    json.loads(raw)
                    with lock:
                        statuses.append(response.status)
                        if len(statuses) == 10 * len(clients):
                            served.set()  # half the requests answered
                # Hold the connection open and idle until close() ends.
                release.wait(timeout=HANG_GUARD_S)
            finally:
                connection.close()

        clients = [threading.Thread(target=client)
                   for _ in range(2 * (os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            assert served.wait(timeout=HANG_GUARD_S)
            closer.start()
            closer.join(timeout=HANG_GUARD_S)
            assert not closer.is_alive(), "close() waited on idle handlers"
        finally:
            sys.setswitchinterval(interval)
            release.set()
            for thread in clients:
                thread.join(timeout=HANG_GUARD_S)
            self.stop(server, closer)
        assert not any(thread.is_alive() for thread in clients)
        assert statuses and set(statuses) <= {200, 503}


# ----------------------------------------------------------------------
# stateful property testing: random endpoint interleavings
# ----------------------------------------------------------------------
def test_stateful_endpoint_interleavings(service, keys_path):
    """Hypothesis drives random call sequences against the live decision
    path and checks, after every step, that unit conservation holds and
    refused requests never moved tenant state."""
    pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    from hypothesis.stateful import (
        RuleBasedStateMachine,
        invariant,
        rule,
        run_state_machine_as_test,
    )

    issued = {"acme": 1000, "tiny": 9}
    flat = np.zeros((L, N), dtype=np.float32).tolist()
    tick = [0.0] * N
    tenants = st.sampled_from(sorted(issued))
    series_names = st.sampled_from(["s0", "s1"])

    class GatewayMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.gateway = Gateway(service, ApiKeyRegistry(keys_path))
            self.keys = {"acme": self.gateway.authenticate("k-acme"),
                         "tiny": self.gateway.authenticate("k-tiny")}
            for tenant_key in self.keys.values():
                # materialize each account at its issued size so the
                # conservation invariant is checkable from step zero
                self.gateway.account_for(tenant_key)
            self.spent = {tenant: 0 for tenant in issued}
            self.next_ts: dict = {}

        def _expect_shed_only(self, tenant, response):
            """A refusal: correct code, and no units moved."""
            assert response.status in (429, 503)
            assert self.spent[tenant] == usage_of(
                self.gateway, tenant)["spent"]

        @rule(tenant=tenants)
        def predict(self, tenant):
            response = self.gateway.predict(
                self.keys[tenant], {"history": flat})
            if response.status == 200:
                self.spent[tenant] += PREDICT_UNITS
            else:
                self._expect_shed_only(tenant, response)

        @rule(tenant=tenants)
        def predict_garbage(self, tenant):
            response = self.gateway.predict(
                self.keys[tenant], {"history": [[1.0], [2.0, 3.0]]})
            assert response.status == 400

        @rule(tenant=tenants)
        def predict_unknown_model(self, tenant):
            response = self.gateway.predict(
                self.keys[tenant], {"history": flat, "dataset": "nope"})
            assert response.status == 404

        @rule(tenant=tenants, series=series_names,
              rows=st.integers(min_value=1, max_value=8))
        def ingest(self, tenant, series, rows):
            stamp = self.next_ts.get((tenant, series), 0.0)
            response = self.gateway.ingest(self.keys[tenant], {
                "series": series, "timestamp": stamp,
                "values": [tick] * rows})
            if response.status == 200:
                assert response.payload["accepted"] == rows
                self.spent[tenant] += rows * INGEST_UNITS
                self.next_ts[(tenant, series)] = stamp + rows
            else:
                self._expect_shed_only(tenant, response)

        @rule(tenant=tenants, series=series_names)
        def ingest_gap(self, tenant, series):
            stamp = self.next_ts.get((tenant, series))
            if stamp is None:  # a fresh series cannot gap
                return
            response = self.gateway.ingest(self.keys[tenant], {
                "series": series, "timestamp": stamp + 100.0,
                "values": tick})
            # quota/rate may refuse first (shed, state untouched);
            # otherwise the gap itself is a clean 400
            if response.status != 400:
                self._expect_shed_only(tenant, response)

        @rule(tenant=tenants, other=tenants)
        def usage(self, tenant, other):
            response = self.gateway.usage(self.keys[tenant], other)
            assert response.status == (200 if other == tenant else 403)

        @rule()
        def stats(self):
            json.dumps(self.gateway.stats_view().payload)

        @rule()
        def unknown_key(self):
            assert self.gateway.authenticate("not-a-key") is None

        @invariant()
        def units_conserved(self):
            for tenant, pool in issued.items():
                usage = usage_of(self.gateway, tenant)
                assert usage["issued"] == pool
                assert usage["spent"] == self.spent[tenant]
                assert usage["reserved"] == 0  # nothing is in flight
                assert usage["spent"] + usage["remaining"] == pool
                assert usage["remaining"] >= 0

    run_state_machine_as_test(GatewayMachine)
