"""Drift-aware streaming forecasts on top of :class:`ForecastService`.

:class:`StreamingForecaster` is the online layer of the serving stack:
ticks enter through a validated :class:`StreamIngestor`, per-key ring
buffers hold the trailing model window, and re-forecasts are triggered
on a configurable cadence (every tick, every ``k`` ticks, or on
demand).  Each trigger submits the current window to the underlying
:class:`~repro.serve.service.ForecastService` queue, so thousands of
concurrent series share the same micro-batched student forwards — the
streaming layer adds state and policy, never a second inference path,
which is what makes replayed streams bitwise identical to offline
``predict()`` (see :mod:`repro.stream.replay`).  Forecasts therefore
come from the service's compiled engine (see :mod:`repro.infer`),
which is bitwise identical to ``StudentModel.predict``.

A per-key :class:`DriftMonitor` scores every realized tick against the
forecast previously issued for it; alarmed series are flagged for
re-scaling and can optionally be served by a naive last-value fallback
until reset.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..serve.service import ForecastService
from .drift import DriftMonitor
from .ingest import StreamIngestor
from .state import SeriesState

__all__ = ["StreamStats", "StreamingForecaster"]

#: How many outstanding forecasts per key are kept for drift scoring.
_ISSUED_DEPTH = 8


@dataclass
class StreamStats:
    """Stream-level counters; compose with ``ServiceStats`` via
    :meth:`StreamingForecaster.snapshot`."""

    ticks: int = 0
    rows: int = 0
    filled: int = 0
    gaps: int = 0
    forecasts: int = 0
    fallbacks: int = 0
    drift_alarms: int = 0

    def as_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "rows": self.rows,
            "filled": self.filled,
            "gaps": self.gaps,
            "forecasts": self.forecasts,
            "fallbacks": self.fallbacks,
            "drift_alarms": self.drift_alarms,
        }


class _SeriesRuntime:
    __slots__ = ("pending_ticks", "issued", "monitor", "alarm_counted")

    def __init__(self, monitor: DriftMonitor):
        self.pending_ticks = 0
        self.issued: deque = deque(maxlen=_ISSUED_DEPTH)  # (at_count, future)
        self.monitor = monitor
        self.alarm_counted = False


class StreamingForecaster:
    """Rolling per-series state + cadence-driven re-forecasting.

    Parameters
    ----------
    service:
        The serving layer every forecast routes through.
    dataset / horizon:
        Model registry key (resolved exactly like
        :meth:`ForecastService.resolve_key`); window shapes come from
        the bundle's own config.
    cadence:
        Re-forecast every ``cadence`` ingested ticks once a key has a
        full window (``1`` = every tick).  ``0`` disables automatic
        triggering — forecasts happen only via :meth:`forecast`.
    policy / interval / max_gap / capacity:
        Forwarded to :class:`StreamIngestor` (gap handling and ring
        sizing).
    raw_values:
        Treat the stream as unscaled data: the bundle's scaler z-scales
        windows in and inverse-transforms forecasts out (service-side).
    fallback_naive:
        When a key's drift alarm is set, serve a last-value ("naive")
        forecast instead of the student until :meth:`reset_drift`.
    drift_window / drift_calibration / drift_threshold / drift_slack:
        Per-key :class:`DriftMonitor` parameters.
    copy_windows:
        Copy each window before submitting.  Off by default: the ring
        holds float64 while :meth:`ForecastService.submit` casts to
        float32 synchronously in the caller's thread, so the zero-copy
        view never outlives the call.  Turn on if a future service
        might hold the submitted array by reference.
    """

    def __init__(self, service: ForecastService, dataset: str | None = None,
                 horizon: int | None = None, *, cadence: int = 1,
                 policy: str = "error", interval: float = 1.0,
                 max_gap: int = 16, capacity: int | None = None,
                 raw_values: bool = False, fallback_naive: bool = False,
                 drift_window: int = 64, drift_calibration: int = 16,
                 drift_threshold: float = 8.0, drift_slack: float = 0.5,
                 copy_windows: bool = False):
        if cadence < 0:
            raise ValueError("cadence must be >= 0 (0 = on-demand only)")
        self.service = service
        self.model_key = service.resolve_key(dataset, horizon)
        config = service.config_for(self.model_key)
        self.input_len = config.history_length
        self.horizon_len = config.horizon
        self.num_variables = config.num_variables
        self.cadence = int(cadence)
        self.raw_values = bool(raw_values)
        self.fallback_naive = bool(fallback_naive)
        self.copy_windows = bool(copy_windows)
        self.ingestor = StreamIngestor(
            self.input_len, self.num_variables, interval=interval,
            policy=policy, max_gap=max_gap, capacity=capacity)
        self.stats = StreamStats()  # guarded-by: _lock
        self._drift_params = dict(
            window=drift_window, calibration=drift_calibration,
            threshold=drift_threshold, slack=drift_slack)
        self._runtimes: dict = {}  # guarded-by: _lock
        self._latest: dict = {}  # guarded-by: _lock
        # Re-entrant: a checkpoint triggered from inside append() calls
        # export_state() while the append still holds the lock.
        self._lock = threading.RLock()
        #: Successful append() calls so far — the WAL sequence number.
        self._seq = 0  # guarded-by: _lock
        #: Attached StreamSnapshotter (see repro.durable), or None.
        self._snapshotter = None  # guarded-by: _lock

    # ------------------------------------------------------------------
    # ingestion + triggering
    # ------------------------------------------------------------------
    def append(self, key, timestamp: float,
               values: np.ndarray) -> Future | None:
        """Ingest one tick (or a ``(T, N)`` run) for ``key``.

        Returns the forecast :class:`Future` when this tick crossed the
        cadence boundary (resolving to the ``(M, N)`` forecast), else
        ``None``.  The future is also cached — :meth:`latest` serves it
        without blocking the ingest path.
        """
        with self._lock:
            result = self.ingestor.append(key, timestamp, values)
            runtime = self._runtime(key)  # after ingest: no phantom keys
            state = self.ingestor.state(key)
            self.stats.ticks += result.observed
            self.stats.rows += result.rows
            self.stats.filled += result.filled
            if result.filled:
                self.stats.gaps += 1
            self._score_drift(runtime, state, result.observed)
            runtime.pending_ticks += result.rows
            future = None
            if (self.cadence > 0 and state.ready
                    and runtime.pending_ticks >= self.cadence):
                future = self._issue(key, runtime, state)
            self._seq += 1
            if self._snapshotter is not None:
                self._snapshotter.observe(key, timestamp, values, self._seq)
            return future

    def forecast(self, key) -> np.ndarray:
        """On-demand blocking re-forecast of ``key``'s current window."""
        with self._lock:
            state = self.ingestor.state(key)  # raises for unknown keys
            runtime = self._runtime(key)
            if not state.ready:
                raise ValueError(
                    f"stream {key!r} has {state.count} of {self.input_len} "
                    f"rows needed for a forecast")
            future = self._issue(key, runtime, state)
        # Wait outside the lock: the service worker resolves the future
        # without it, and concurrent appends must not queue behind us.
        return future.result()

    def latest(self, key, wait: bool = True) -> np.ndarray | None:
        """Most recent forecast for ``key`` (``None`` if never issued).

        With ``wait=False`` an unresolved in-flight forecast also
        returns ``None`` instead of blocking.
        """
        with self._lock:
            future = self._latest.get(key)
        if future is None or (not wait and not future.done()):
            return None
        return np.asarray(future.result())

    def _runtime(self, key) -> _SeriesRuntime:  # requires-lock: _lock
        runtime = self._runtimes.get(key)
        if runtime is None:
            runtime = _SeriesRuntime(DriftMonitor(**self._drift_params))
            self._runtimes[key] = runtime
        return runtime

    # requires-lock: _lock
    def _issue(self, key, runtime: _SeriesRuntime,
               state: SeriesState) -> Future:
        runtime.pending_ticks = 0
        issued_at = state.count
        self._note_alarm(runtime)
        if self.fallback_naive and runtime.monitor.alarmed:
            # Naive fallback: repeat the last observation across the
            # horizon.  Drift scoring keeps running against it, so the
            # monitor still reflects live quality after the switch.
            future: Future = Future()
            future.set_result(
                np.tile(state.last(), (self.horizon_len, 1)))
            self.stats.fallbacks += 1
        else:
            window = state.window(copy=self.copy_windows)
            future = self.service.submit(
                window, dataset=self.model_key[0],
                horizon=self.model_key[1], raw_values=self.raw_values)
        self.stats.forecasts += 1
        runtime.issued.appendleft((issued_at, future))
        self._latest[key] = future
        return future

    # ------------------------------------------------------------------
    # drift
    # ------------------------------------------------------------------
    # requires-lock: _lock
    def _score_drift(self, runtime: _SeriesRuntime, state: SeriesState,
                     observed: int) -> None:
        """Score newly realized rows against outstanding forecasts.

        A forecast issued when the series had ``a`` rows covers global
        rows ``a .. a + M - 1``; each just-appended observed row (gap
        fills are synthetic and skipped) is matched to the newest
        resolved forecast covering it.
        """
        if not runtime.issued or observed == 0:
            return
        # Rows older than the ring are gone; score what survived.
        observed = min(observed, state.capacity, state.count)
        realized = state.tail(observed)
        first_row = state.count - observed
        for offset in range(observed):
            row_index = first_row + offset
            prediction = self._covering_prediction(runtime, row_index)
            if prediction is None:
                continue
            runtime.monitor.update(realized[offset] - prediction)
        self._note_alarm(runtime)

    def _note_alarm(self, runtime: _SeriesRuntime) -> None:  # requires-lock: _lock
        """Count each alarm episode once, however it was raised."""
        if runtime.monitor.alarmed and not runtime.alarm_counted:
            runtime.alarm_counted = True
            self.stats.drift_alarms += 1

    def _covering_prediction(self, runtime: _SeriesRuntime,
                             row_index: int) -> np.ndarray | None:
        for issued_at, future in runtime.issued:  # newest first
            if not issued_at <= row_index < issued_at + self.horizon_len:
                continue
            if not future.done() or future.exception() is not None:
                continue
            return np.asarray(future.result())[row_index - issued_at]
        return None

    # ------------------------------------------------------------------
    # readouts
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """Successful :meth:`append` calls so far (the WAL sequence)."""
        with self._lock:
            return self._seq

    @property
    def interval(self) -> float:
        """Expected tick spacing (the replay harness reads this — the
        sharded front end exposes it too, without a single ingestor)."""
        return self.ingestor.interval

    def keys(self) -> list:
        with self._lock:
            return self.ingestor.keys()

    def state(self, key) -> SeriesState:
        with self._lock:
            return self.ingestor.state(key)

    def drop(self, key) -> None:
        """Retire a series completely (ring buffer, drift monitor,
        cached forecast) — long-lived deployments with series churn
        must use this, not ``ingestor.drop``, to avoid leaking per-key
        runtime state."""
        with self._lock:
            self.ingestor.drop(key)
            self._runtimes.pop(key, None)
            self._latest.pop(key, None)

    def monitor(self, key) -> DriftMonitor:
        """The drift monitor for ``key`` (must have been ingested)."""
        with self._lock:
            if key not in self._runtimes:
                raise KeyError(f"unknown stream key {key!r}")
            return self._runtimes[key].monitor

    def alarmed_keys(self) -> list:
        with self._lock:
            alarmed = []
            for key, runtime in self._runtimes.items():
                self._note_alarm(runtime)
                if runtime.monitor.alarmed:
                    alarmed.append(key)
            return alarmed

    def reset_drift(self, key) -> None:
        """Clear ``key``'s alarm and re-calibrate its monitor."""
        with self._lock:
            if key not in self._runtimes:
                raise KeyError(f"unknown stream key {key!r}")
            runtime = self._runtimes[key]
            self._note_alarm(runtime)  # count the episode even if unseen
            runtime.monitor.reset()
            runtime.alarm_counted = False

    def snapshot(self) -> dict:
        """Composed stream- and serve-level counters (one coherent
        service snapshot, see :meth:`ForecastService.snapshot`).

        Taken under the forecaster lock so a concurrent ``append`` or
        ``drop`` can never produce a torn stats dict (e.g. a series
        count from before a drop paired with alarms from after it).
        """
        with self._lock:
            stream = self.stats.as_dict()
            stream["seq"] = self._seq
            stream["series"] = len(self.ingestor.keys())
            stream["alarmed"] = len(self.alarmed_keys())
        return {"stream": stream,
                "service": self.service.snapshot().as_dict()}

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def durable_config(self) -> dict:
        """The identity + policy knobs a snapshot must record.

        The recoverer compares the identity subset (shapes, grid, gap
        policy, ``raw_values``) strictly — restoring into a forecaster
        whose windows would differ is refused.  Cadence, fallback and
        drift parameters are policy knobs the restoring process may
        legitimately override.
        """
        capacity = self.ingestor.capacity
        if capacity is None:
            capacity = 2 * self.input_len  # the SeriesState default
        return {
            "dataset": self.model_key[0],
            "horizon": self.model_key[1],
            "input_len": self.input_len,
            "horizon_len": self.horizon_len,
            "num_variables": self.num_variables,
            "interval": self.ingestor.interval,
            "policy": self.ingestor.policy,
            "max_gap": self.ingestor.max_gap,
            "capacity": int(capacity),
            "raw_values": self.raw_values,
            "cadence": self.cadence,
            "fallback_naive": self.fallback_naive,
            "drift": dict(self._drift_params),
        }

    def export_state(self) -> dict:
        """One consistent, fully resolved view of the whole universe.

        Taken under the lock; every in-flight forecast future is waited
        on first (the service worker resolves them without this lock),
        so the exported arrays are concrete values, not promises.
        Futures that failed are dropped — they hold no state worth
        persisting.
        """
        with self._lock:
            entries = []
            for key in self.ingestor.keys():
                entry = self.ingestor.export_key(key)
                entry["key"] = key
                runtime = self._runtimes.get(key)
                if runtime is None:  # ingested but never scored/issued
                    runtime = _SeriesRuntime(
                        DriftMonitor(**self._drift_params))
                entry["pending_ticks"] = runtime.pending_ticks
                entry["alarm_counted"] = runtime.alarm_counted
                entry["drift"] = runtime.monitor.export_state()
                issued = []
                for issued_at, future in runtime.issued:  # newest first
                    if future.exception() is not None:
                        continue
                    issued.append((int(issued_at),
                                   np.asarray(future.result()).copy()))
                entry["issued"] = issued
                latest = self._latest.get(key)
                entry["latest"] = (
                    None if latest is None or latest.exception() is not None
                    else np.asarray(latest.result()).copy())
                entries.append(entry)
            return {
                "seq": self._seq,
                "config": self.durable_config(),
                "stream_stats": self.stats.as_dict(),
                "service_stats": self.service.snapshot().as_dict(),
                "entries": entries,
            }

    def import_state(self, state: dict) -> None:
        """Atomically replace all streaming state with an exported view.

        Everything is rebuilt and validated first; only then does the
        swap happen, so a malformed payload leaves the live state
        untouched (the fail-closed contract the recoverer relies on).
        Service counters are *not* touched here — see
        :meth:`ForecastService.restore_stats`.
        """
        with self._lock:
            entries: dict = {}
            runtimes: dict = {}
            latest: dict = {}
            for entry in state["entries"]:
                key = entry["key"]
                entries[key] = {
                    "series": entry["series"],
                    "last_timestamp": entry["last_timestamp"],
                    "gaps": entry["gaps"],
                }
                runtime = _SeriesRuntime(
                    DriftMonitor.from_state(entry["drift"]))
                runtime.pending_ticks = int(entry["pending_ticks"])
                runtime.alarm_counted = bool(entry["alarm_counted"])
                for issued_at, forecast in entry["issued"]:  # newest first
                    future: Future = Future()
                    future.set_result(np.asarray(forecast))
                    runtime.issued.append((int(issued_at), future))
                runtimes[key] = runtime
                if entry["latest"] is not None:
                    future = Future()
                    future.set_result(np.asarray(entry["latest"]))
                    latest[key] = future
            stats = StreamStats(**{
                field: int(state["stream_stats"][field])
                for field in StreamStats().as_dict()})
            seq = int(state["seq"])
            self.ingestor.import_entries(entries)  # validates, then swaps
            self._runtimes = runtimes
            self._latest = latest
            self.stats = stats
            self._seq = seq

    def clear(self) -> None:
        """Drop every series, counter and cached forecast (seq included).

        The recoverer calls this when an import fails partway — the
        fail-closed alternative to leaving half a universe behind.
        """
        with self._lock:
            self.ingestor.import_entries({})
            self._runtimes = {}
            self._latest = {}
            self.stats = StreamStats()  # guarded-by: _lock
            self._seq = 0
