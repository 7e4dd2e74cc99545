"""Streaming forecasts on top of :class:`ForecastService`.

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

Each key holds only what its forecasts need: the ring, last timestamp
and gap count (in the ingestor), the ticks pending since its last
forecast, and that latest forecast.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import asdict, dataclass

import numpy as np

from ..serve.service import ForecastService
from .ingest import StreamIngestor
from .state import SeriesState

__all__ = ["StreamStats", "StreamingForecaster"]


@dataclass
class StreamStats:
    """Stream-level counters; compose with ``ServiceStats`` via
    :meth:`StreamingForecaster.snapshot`."""

    ticks: int = 0
    rows: int = 0
    filled: int = 0
    gaps: int = 0
    forecasts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


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

    Windows are submitted as zero-copy ring views:
    :meth:`ForecastService.submit` casts them to float32 in the
    caller's thread, so a view never outlives the call.
    """

    def __init__(self, service: ForecastService, dataset: str | None = None,
                 horizon: int | None = None, *, cadence: int = 1,
                 policy: str = "error", interval: float = 1.0,
                 max_gap: int = 16, capacity: int | None = None,
                 raw_values: bool = False):
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
        self.ingestor = StreamIngestor(
            self.input_len, self.num_variables, interval=interval,
            policy=policy, max_gap=max_gap, capacity=capacity)
        self.stats = StreamStats()  # guarded-by: _lock
        #: Rows each key has taken since its last forecast.
        self._pending: dict = {}  # guarded-by: _lock
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

        Write-ahead: the tick is validated, then logged by an attached
        snapshotter, and only then applied and sequenced.  A tick that
        fails validation or logging (a full disk, say) raises with
        nothing applied, so the rings never run ahead of the log.
        """
        with self._lock:
            tick = self.ingestor.check(key, timestamp, values)
            snapshotter = self._snapshotter
            if snapshotter is not None:
                snapshotter.log(key, tick.timestamp, tick.values,
                                self._seq + 1)
            result = self.ingestor.append(key, timestamp, values,
                                          checked=tick)
            state = self.ingestor.state(key)
            self.stats.ticks += result.observed
            self.stats.rows += result.rows
            self.stats.filled += result.filled
            if result.filled:
                self.stats.gaps += 1
            # After ingest, so a refused first tick leaves no phantom key.
            pending = self._pending.get(key, 0) + result.rows
            self._pending[key] = pending
            future = None
            if self.cadence > 0 and state.ready and pending >= self.cadence:
                future = self._issue(key, state)
            self._seq += 1
            if snapshotter is not None:
                snapshotter.observe()
            return future

    def forecast(self, key) -> np.ndarray:
        """On-demand blocking re-forecast of ``key``'s current window."""
        with self._lock:
            state = self.ingestor.state(key)  # raises for unknown keys
            if not state.ready:
                raise ValueError(
                    f"stream {key!r} has {state.count} of {self.input_len} "
                    f"rows needed for a forecast")
            future = self._issue(key, state)
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

    # requires-lock: _lock
    def _issue(self, key, state: SeriesState) -> Future:
        """Submit ``key``'s window; a refused submit (for example on a
        closed service) comes back as a failed future, not a raise.

        From :meth:`append` the tick is already logged and the ring
        has taken it, so raising here would leave it unsequenced.
        """
        self._pending[key] = 0
        try:
            future = self.service.submit(
                state.window(), dataset=self.model_key[0],
                horizon=self.model_key[1], raw_values=self.raw_values)
        except Exception as error:  # noqa: BLE001 — surfaced by the future
            future = Future()
            future.set_exception(error)
        self.stats.forecasts += 1
        self._latest[key] = future
        return future

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
        """Retire a series completely (ring buffer, pending-tick count,
        cached forecast) — long-lived deployments with series churn
        must use this, not ``ingestor.drop``, to avoid leaking per-key
        runtime state."""
        with self._lock:
            self.ingestor.drop(key)
            self._pending.pop(key, None)
            self._latest.pop(key, None)

    def snapshot(self) -> dict:
        """Composed stream- and serve-level counters (one coherent
        service snapshot, see :meth:`ForecastService.snapshot`).

        Taken under the forecaster lock so a concurrent ``append`` or
        ``drop`` can never produce a torn stats dict (e.g. a series
        count from before a drop paired with a tick count from after
        it).
        """
        with self._lock:
            stream = self.stats.as_dict()
            stream["seq"] = self._seq
            stream["series"] = len(self.ingestor.keys())
        return {"stream": stream,
                "service": self.service.snapshot().as_dict()}

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def durable_config(self) -> dict:
        """The identity + policy knobs a snapshot must record.

        The recoverer compares the identity subset (shapes, grid, gap
        policy, ``raw_values``) strictly — restoring into a forecaster
        whose windows would differ is refused.  The cadence is a policy
        knob the restoring process may legitimately override.
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
                entry["pending_ticks"] = self._pending.get(key, 0)
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
            pending: dict = {}
            latest: dict = {}
            for entry in state["entries"]:
                key = entry["key"]
                entries[key] = {
                    "series": entry["series"],
                    "last_timestamp": entry["last_timestamp"],
                    "gaps": entry["gaps"],
                }
                pending[key] = int(entry["pending_ticks"])
                if entry["latest"] is not None:
                    future: Future = Future()
                    future.set_result(np.asarray(entry["latest"]))
                    latest[key] = future
            stats = StreamStats(**{
                field: int(state["stream_stats"][field])
                for field in StreamStats().as_dict()})
            seq = int(state["seq"])
            self.ingestor.import_entries(entries)  # validates, then swaps
            self._pending = pending
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
            self._pending = {}
            self._latest = {}
            self.stats = StreamStats()  # guarded-by: _lock
            self._seq = 0
