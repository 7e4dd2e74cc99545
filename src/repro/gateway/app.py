"""Transport-independent gateway core: auth → meter → admit → serve.

:class:`Gateway` owns the multi-tenant resource model and the wiring
into the serving stack; the HTTP layer (:mod:`repro.gateway.server`)
only parses requests and writes responses.  Keeping the policy here
means the tests can drive the exact production decision path twice —
in process for the unit/property suites and over real sockets for the
end-to-end ones — and both see the same state machine.

Every priced endpoint runs the same pipeline, in this order::

    authenticate          -> 401  (handled by the transport)
    drain check           -> 503  (shutting down; nothing touched)
    admission (gauges)    -> 503  Retry-After   [saturation]
    parse + validate      -> 400/404            [no quota for garbage]
    quota reserve         -> 429                [pool untouched on refusal]
    rate bucket           -> 429  Retry-After   [reservation released]
    enqueue + execute     -> 200  (reservation committed)
                          -> 400  forecast not finite (released)
                          -> 5xx (reservation released)

An ingest is all-or-nothing — the whole tick or run is logged and
applied, or nothing is (a WAL write that fails, say on a full disk,
answers 500) — so a 200 settles its reservation with one ``commit``.

The ordering is the load-shedding contract: a ``429``/``503`` happens
*before work is enqueued* and leaves tenant state bit-for-bit unchanged
(reserve/release round-trips are free), so a saturated or over-quota
gateway degrades into cheap rejections instead of unbounded queues.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace

import numpy as np

from ..persist import atomic_write_json
from ..shard.router import ShardRouter
from ..shard.stream import ShardedStreamingForecaster
from ..stream.ingest import StreamError
from .admission import AdmissionController, SaturationError
from .auth import ApiKeyRegistry, TenantKey
from .meter import INGEST_UNITS, PREDICT_UNITS, Meter, QuotaError, TokenBucket

__all__ = ["Gateway", "GatewayStats", "Response"]

#: Body text of every 500.  Exception text can carry file paths and
#: other internals, so it never reaches the client; the ``errors``
#: counter records the failure.
INTERNAL_ERROR = "internal server error"

#: Why a forecast that overflowed inside the forward is refused: its
#: NaN/inf values have no place in a JSON body.
NON_FINITE_FORECAST = ("the forecast is not finite: the window's values "
                       "overflow the model")


@dataclass
class GatewayStats:
    """Gateway-level counters (O(1) space, one lock)."""

    requests: int = 0
    predicts: int = 0
    ingest_calls: int = 0
    ingested_ticks: int = 0
    shed_quota: int = 0
    shed_rate: int = 0
    shed_saturated: int = 0
    unauthorized: int = 0
    invalid: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "predicts": self.predicts,
            "ingest_calls": self.ingest_calls,
            "ingested_ticks": self.ingested_ticks,
            "shed_quota": self.shed_quota,
            "shed_rate": self.shed_rate,
            "shed_saturated": self.shed_saturated,
            "unauthorized": self.unauthorized,
            "invalid": self.invalid,
            "errors": self.errors,
        }


@dataclass
class Response:
    """What a handler decided: status, JSON payload, Retry-After."""

    status: int
    payload: dict
    retry_after: float | None = None


class _Invalid(ValueError):
    """Client-side request problem (status carried along)."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


class Gateway:
    """Multi-tenant front end over a serving backend.

    Parameters
    ----------
    service:
        The :class:`ShardRouter` to serve through (one worker unless
        configured otherwise); adopted, not owned — the caller's
        context manager closes it.  The predict path needs only the
        ``ForecastService`` surface, so a bare service serves
        predict-only deployments; ingest needs the router.
    registry:
        The :class:`ApiKeyRegistry` resolving ``Authorization`` keys.
    meter:
        Unit accounting; a fresh :class:`Meter` by default.  Pass a
        restored one to carry usage across a restart.
    cadence / policy / interval / max_gap / raw_values:
        Streaming-forecaster policy for the ingest path, applied
        uniformly to every model key (one policy per gateway keeps the
        durable-config identity checks meaningful).
    max_pending / retry_after:
        Admission bound and shed hint (see
        :class:`~repro.gateway.admission.AdmissionController`).
    predict_units / ingest_units:
        Prices (units per forecast / per ingested tick).
    request_timeout:
        Seconds a predict handler waits on its future before answering
        ``504`` — a backstop; admission should keep waits far shorter.
    """

    def __init__(self, service: ShardRouter,
                 registry: ApiKeyRegistry, *, meter: Meter | None = None,
                 cadence: int = 1, policy: str = "error",
                 interval: float = 1.0, max_gap: int = 16,
                 raw_values: bool = False, max_pending: int = 256,
                 retry_after: float = 1.0,
                 predict_units: int = PREDICT_UNITS,
                 ingest_units: int = INGEST_UNITS,
                 request_timeout: float = 30.0):
        if predict_units < 0 or ingest_units < 0:
            raise ValueError("unit prices must be >= 0")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive seconds")
        self.service = service
        self.registry = registry
        self.meter = meter if meter is not None else Meter()
        self.admission = AdmissionController(
            service, max_pending=max_pending, retry_after=retry_after)
        self.stats = GatewayStats()  # guarded-by: _lock
        self.predict_units = int(predict_units)
        self.ingest_units = int(ingest_units)
        self.request_timeout = float(request_timeout)
        self._stream_options = dict(
            cadence=cadence, policy=policy, interval=interval,
            max_gap=max_gap, raw_values=raw_values)
        # guarded-by: _lock
        self._forecasters: dict[tuple[str, int],
                                ShardedStreamingForecaster] = {}
        self._buckets: dict[str, TokenBucket] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._draining = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    # auth + shared plumbing
    # ------------------------------------------------------------------
    def authenticate(self, key: str | None) -> TenantKey | None:
        """Resolve an API key; counts the refusals."""
        tenant_key = self.registry.authenticate(key)
        if tenant_key is None:
            with self._lock:
                self.stats.unauthorized += 1
        return tenant_key

    def account_for(self, tenant_key: TenantKey):
        """The tenant's unit pool, expanded to the key's issued size
        (hot-reloaded quota raises land here via ``expand``)."""
        return self.meter.account(tenant_key.tenant,
                                  issued=tenant_key.units)

    def bucket_for(self, tenant_key: TenantKey) -> TokenBucket:
        """The tenant's token bucket (shaped by its first-seen key)."""
        with self._lock:
            bucket = self._buckets.get(tenant_key.tenant)
            if bucket is None:
                bucket = TokenBucket(tenant_key.rate, tenant_key.burst)
                self._buckets[tenant_key.tenant] = bucket
            return bucket

    def forecaster_for(self, dataset: str | None = None,
                       horizon: int | None = None
                       ) -> ShardedStreamingForecaster:
        """The (lazily created) streaming forecaster for a model key.

        One forecaster per ``(dataset, horizon)`` bundle; all tenants'
        series share it, namespaced by ``(tenant, series)`` stream
        keys.  Raises ``KeyError`` when the registry cannot resolve the
        model (404 at the transport).
        """
        model_key = self.service.resolve_key(dataset, horizon)
        with self._lock:
            forecaster = self._forecasters.get(model_key)
            if forecaster is None:
                forecaster = ShardedStreamingForecaster(
                    self.service, dataset=model_key[0],
                    horizon=model_key[1], **self._stream_options)
                self._forecasters[model_key] = forecaster
            return forecaster

    def _shed(self, field: str) -> None:
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + 1)

    def _check_open(self) -> Response | None:
        with self._lock:
            self.stats.requests += 1
            if self._draining:
                return Response(503, {"error": "gateway is draining"},
                                retry_after=self.admission.retry_after)
        return None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def predict(self, tenant_key: TenantKey, payload: dict) -> Response:
        """``POST /v1/predict`` — one priced, metered forecast."""
        refused = self._check_open()
        if refused is not None:
            return refused
        try:
            self.admission.admit()
        except SaturationError as error:
            self._shed("shed_saturated")
            return Response(503, {"error": str(error)},
                            retry_after=error.retry_after)
        try:
            history, dataset, horizon, raw = self._parse_predict(payload)
            model_key = self._resolve(dataset, horizon)
        except _Invalid as error:
            self._shed("invalid")
            return Response(error.status, {"error": str(error)})

        account = self.account_for(tenant_key)
        try:
            reservation = account.reserve(self.predict_units, "predict")
        except QuotaError as error:
            self._shed("shed_quota")
            return Response(429, {"error": str(error),
                                  "remaining": error.remaining},
                            retry_after=self.admission.retry_after)
        retry = self.bucket_for(tenant_key).try_acquire(self.predict_units)
        if retry > 0.0:
            reservation.release()
            self._shed("shed_rate")
            return Response(429, {"error": (
                f"tenant {tenant_key.tenant!r} exceeded its request "
                f"rate")}, retry_after=retry)

        try:
            future = self.service.submit(
                history, dataset=model_key[0], horizon=model_key[1],
                raw_values=raw)
        except ValueError as error:  # shape/scaler contract violations
            reservation.release()
            self._shed("invalid")
            return Response(400, {"error": str(error)})
        except Exception:  # noqa: BLE001 — surface as 500
            reservation.release()
            self._shed("errors")
            return Response(500, {"error": INTERNAL_ERROR})
        try:
            forecast = future.result(timeout=self.request_timeout)
        except FutureTimeoutError:
            # The window may still be coalesced into a later batch; the
            # work is not provably shed, but billing an answer the
            # client never saw is worse — release.
            reservation.release()
            self._shed("errors")
            return Response(504, {"error": (
                f"forecast did not complete within "
                f"{self.request_timeout}s")})
        except Exception:  # noqa: BLE001
            reservation.release()
            self._shed("errors")
            return Response(500, {"error": INTERNAL_ERROR})
        forecast = np.asarray(forecast)
        if not np.isfinite(forecast).all():
            # Finite float32 inputs can still overflow in the forward.
            reservation.release()
            self._shed("invalid")
            return Response(400, {"error": NON_FINITE_FORECAST})
        reservation.commit()
        with self._lock:
            self.stats.predicts += 1
        return Response(200, {
            "dataset": model_key[0],
            "horizon": model_key[1],
            "forecast": forecast.tolist(),
            "units": {"spent": self.predict_units,
                      "remaining": account.remaining},
        })

    def ingest(self, tenant_key: TenantKey, payload: dict) -> Response:
        """``POST /v1/ingest`` — one tick or a bulk run, priced per row."""
        refused = self._check_open()
        if refused is not None:
            return refused
        try:
            # At most one cadence forecast can be triggered per append,
            # whatever the run length — that is the enqueue the gauges
            # must cover.
            self.admission.admit()
        except SaturationError as error:
            self._shed("shed_saturated")
            return Response(503, {"error": str(error)},
                            retry_after=error.retry_after)
        try:
            series, timestamp, values, dataset, horizon, wait = \
                self._parse_ingest(payload)
            forecaster = self._forecaster(dataset, horizon)
        except _Invalid as error:
            self._shed("invalid")
            return Response(error.status, {"error": str(error)})

        rows = 1 if values.ndim == 1 else len(values)
        cost = self.ingest_units * rows
        account = self.account_for(tenant_key)
        try:
            reservation = account.reserve(cost, "ingest")
        except QuotaError as error:
            self._shed("shed_quota")
            return Response(429, {"error": str(error),
                                  "remaining": error.remaining},
                            retry_after=self.admission.retry_after)
        retry = self.bucket_for(tenant_key).try_acquire(cost)
        if retry > 0.0:
            reservation.release()
            self._shed("shed_rate")
            return Response(429, {"error": (
                f"tenant {tenant_key.tenant!r} exceeded its request "
                f"rate")}, retry_after=retry)

        key = (tenant_key.tenant, series)
        try:
            future = forecaster.append(key, timestamp, values)
        except StreamError as error:
            # append is transactional: it raises before touching the
            # ring, so nothing was ingested and nothing is owed.
            reservation.release()
            self._shed("invalid")
            return Response(400, {"error": str(error)})
        except Exception:  # noqa: BLE001
            reservation.release()
            self._shed("errors")
            return Response(500, {"error": INTERNAL_ERROR})
        # append is all-or-nothing: the whole run landed, so every
        # reserved unit is spent.
        reservation.commit()
        with self._lock:
            self.stats.ingest_calls += 1
            self.stats.ingested_ticks += rows
        state = forecaster.state(key)
        body = {
            "series": series,
            "accepted": rows,
            "count": int(state.count),
            "ready": bool(state.ready),
            "forecast_triggered": future is not None,
            "units": {"spent": cost, "remaining": account.remaining},
        }
        if wait and future is not None:
            try:
                forecast = np.asarray(
                    future.result(timeout=self.request_timeout))
            except Exception:  # noqa: BLE001 — ticks landed
                body["forecast_error"] = INTERNAL_ERROR
            else:
                if np.isfinite(forecast).all():
                    body["forecast"] = forecast.tolist()
                else:
                    body["forecast_error"] = NON_FINITE_FORECAST
        return Response(200, body)

    def usage(self, tenant_key: TenantKey, tenant: str) -> Response:
        """``GET /v1/tenants/{tenant}/usage`` — own-tenant only."""
        refused = self._check_open()
        if refused is not None:
            return refused
        if tenant != tenant_key.tenant:
            self._shed("invalid")
            return Response(403, {"error": (
                f"key for tenant {tenant_key.tenant!r} cannot read "
                f"usage of {tenant!r}")})
        return Response(200, self.account_for(tenant_key).as_dict())

    def stats_view(self) -> Response:
        """``GET /v1/stats`` — gateway + service + stream counters."""
        refused = self._check_open()
        if refused is not None:
            return refused
        return Response(200, self.snapshot())

    def health(self) -> Response:
        """``GET /healthz`` — unauthenticated liveness + pressure."""
        depth, flight = self.service.pressure()
        with self._lock:
            draining = self._draining
        payload = {
            "status": "draining" if draining else "ok",
            "queue_depth": depth,
            "in_flight": flight,
            "headroom": self.admission.headroom(),
            "models": len(self.service.keys()),
        }
        return Response(503 if draining else 200, payload)

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------
    def _resolve(self, dataset, horizon) -> tuple[str, int]:
        try:
            return self.service.resolve_key(dataset, horizon)
        except KeyError as error:
            raise _Invalid(404, str(error)) from None

    def _forecaster(self, dataset, horizon) -> ShardedStreamingForecaster:
        try:
            return self.forecaster_for(dataset, horizon)
        except KeyError as error:
            raise _Invalid(404, str(error)) from None

    @staticmethod
    def _parse_common(payload: dict) -> tuple[str | None, int | None]:
        dataset = payload.get("dataset")
        horizon = payload.get("horizon")
        if dataset is not None and not isinstance(dataset, str):
            raise _Invalid(400, "'dataset' must be a string")
        if horizon is not None:
            if not isinstance(horizon, int) or isinstance(horizon, bool):
                raise _Invalid(400, "'horizon' must be an integer")
        return dataset, horizon

    def _parse_predict(self, payload: dict):
        if not isinstance(payload, dict):
            raise _Invalid(400, "request body must be a JSON object")
        if "history" not in payload:
            raise _Invalid(400, "'history' is required: a (H, N) nested "
                                "list of floats")
        try:
            # Overflow is refused below, as inf, not warned about.
            with np.errstate(over="ignore"):
                history = np.asarray(payload["history"], dtype=np.float32)
        except (TypeError, ValueError):
            raise _Invalid(400, "'history' must be a rectangular nested "
                                "list of numbers") from None
        if history.ndim != 2:
            raise _Invalid(400, f"'history' must be 2-dimensional "
                                f"(H, N), got shape {history.shape}")
        if not np.isfinite(history).all():
            raise _Invalid(400, "'history' carries non-finite value(s) "
                                "(NaN, inf or beyond float32)")
        dataset, horizon = self._parse_common(payload)
        raw = bool(payload.get("raw_values", False))
        return history, dataset, horizon, raw

    def _parse_ingest(self, payload: dict):
        if not isinstance(payload, dict):
            raise _Invalid(400, "request body must be a JSON object")
        series = payload.get("series")
        if not isinstance(series, str) or not series:
            raise _Invalid(400, "'series' is required: a non-empty "
                                "string naming the stream")
        timestamp = payload.get("timestamp")
        if not isinstance(timestamp, (int, float)) \
                or isinstance(timestamp, bool):
            raise _Invalid(400, "'timestamp' is required: a number on "
                                "the ingest interval grid")
        if "values" not in payload:
            raise _Invalid(400, "'values' is required: one (N,) tick or "
                                "a (T, N) run of ticks")
        try:
            values = np.asarray(payload["values"], dtype=np.float64)
        except (TypeError, ValueError):
            raise _Invalid(400, "'values' must be a rectangular nested "
                                "list of numbers") from None
        if values.ndim not in (1, 2) or values.size == 0:
            raise _Invalid(400, f"'values' must be (N,) or (T, N) and "
                                f"non-empty, got shape {values.shape}")
        dataset, horizon = self._parse_common(payload)
        wait = bool(payload.get("wait", False))
        return series, float(timestamp), values, dataset, horizon, wait

    # ------------------------------------------------------------------
    # observability + durability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Composed gateway / service / stream / tenant counters."""
        with self._lock:
            gateway = replace(self.stats).as_dict()
            forecasters = dict(self._forecasters)
        service = self.service.snapshot().as_dict()
        streams = {f"{key[0]}:{key[1]}": fc.snapshot()["stream"]
                   for key, fc in forecasters.items()}
        return {"gateway": gateway, "service": service,
                "streams": streams, "tenants": self.meter.usage()}

    def save_usage(self, path: str) -> None:
        """Atomically persist per-tenant metering (survives restart)."""
        atomic_write_json(path, self.meter.export_state())

    def load_usage(self, path: str) -> bool:
        """Restore metering saved by :meth:`save_usage`; False if the
        file does not exist yet (first boot)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return False
        self.meter.import_state(payload)
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Refuse new work (503) while in-flight requests finish."""
        with self._lock:
            self._draining = True
