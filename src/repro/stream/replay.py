"""Replay harness: stream a recorded series tick-by-tick.

:func:`replay` feeds any value matrix (e.g. a
:class:`~repro.data.series.MultivariateTimeSeries` segment) through a
:class:`~repro.stream.forecaster.StreamingForecaster` one tick at a
time, exactly as a live feed would, and collects every issued forecast.
:func:`verify_parity` then recomputes each forecast through the offline
batch path — ``service.predict`` on the pre-cut window — and demands
**bitwise identity**.  This is the correctness anchor of the streaming
subsystem: ring buffers, cadence logic and queue routing may only ever
change *when* a forecast happens, never its value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data.series import MultivariateTimeSeries
from .forecaster import StreamingForecaster

__all__ = ["ReplayParityError", "ReplayReport", "replay", "verify_parity"]


class ReplayParityError(AssertionError):
    """A replayed forecast diverged from the offline batch path."""


@dataclass
class ReplayReport:
    """Everything one replay run produced.

    ``forecasts`` maps the 0-based tick index at which a forecast was
    issued to its resolved ``(M, N)`` prediction; tick ``i`` sees the
    window ``values[i - input_len + 1 : i + 1]``.
    """

    key: object
    ticks: int
    duration_s: float
    forecasts: dict = field(default_factory=dict)
    stream: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    #: First global tick this run fed (non-zero for resumed replays).
    first_tick: int = 0

    @property
    def ticks_per_second(self) -> float:
        return self.ticks / max(self.duration_s, 1e-9)

    def as_dict(self) -> dict:
        """JSON-friendly summary (forecast arrays reduced to a count)."""
        return {
            "key": list(self.key) if isinstance(self.key, tuple)
            else self.key,
            "ticks": self.ticks,
            "first_tick": self.first_tick,
            "duration_s": self.duration_s,
            "ticks_per_second": self.ticks_per_second,
            "forecasts": len(self.forecasts),
            "stream": self.stream,
            "service": self.service,
        }


def replay(forecaster: StreamingForecaster,
           values: np.ndarray | MultivariateTimeSeries,
           key=("replay", "series"), start: float = 0.0,
           max_ticks: int | None = None,
           first_tick: int = 0) -> ReplayReport:
    """Feed ``values`` through ``forecaster`` tick-by-tick.

    Ticks are spaced by the forecaster's ingest interval starting at
    ``start``; every issued forecast is resolved before the report is
    returned, so ``duration_s`` covers ingestion *and* forecasting —
    the end-to-end rate a live deployment would sustain.

    ``first_tick`` resumes a replay mid-series (after crash recovery):
    ticks ``first_tick .. end`` are fed with their *global* timestamps
    and forecast indices, so a recovered run's report merges seamlessly
    with the pre-crash one.  ``max_ticks`` counts ticks fed by *this*
    call.
    """
    if isinstance(values, MultivariateTimeSeries):
        values = values.values
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"values must be (T, N), got {values.shape}")
    if not 0 <= first_tick <= len(values):
        raise ValueError(
            f"first_tick must be in [0, {len(values)}], got {first_tick}")
    end = (len(values) if max_ticks is None
           else min(first_tick + max_ticks, len(values)))
    interval = forecaster.interval

    futures: dict = {}
    begin = time.perf_counter()
    for i in range(first_tick, end):
        future = forecaster.append(key, start + i * interval, values[i])
        if future is not None:
            futures[i] = future
    forecasts = {i: np.asarray(f.result()) for i, f in futures.items()}
    duration = time.perf_counter() - begin

    snapshot = forecaster.snapshot()
    return ReplayReport(key=key, ticks=end - first_tick,
                        duration_s=duration, forecasts=forecasts,
                        stream=snapshot["stream"],
                        service=snapshot["service"],
                        first_tick=first_tick)


def verify_parity(report: ReplayReport, forecaster: StreamingForecaster,
                  values: np.ndarray | MultivariateTimeSeries) -> int:
    """Assert every replayed forecast equals the offline batch path.

    For each issued tick the pre-cut window is pushed through
    ``service.predict`` — the request/response path PR 2 proved bitwise
    identical to a direct student forward — and compared **bitwise**
    against the streamed forecast.  Returns the number of forecasts
    compared; raises :class:`ReplayParityError` on the first mismatch.

    Only meaningful for gap-free replays (a gap policy intentionally
    changes the windows).
    """
    if isinstance(values, MultivariateTimeSeries):
        values = values.values
    values = np.asarray(values, dtype=np.float64)
    input_len = forecaster.input_len
    dataset, horizon = forecaster.model_key
    compared = 0
    for tick, streamed in sorted(report.forecasts.items()):
        window = values[tick - input_len + 1: tick + 1]
        offline = forecaster.service.predict(
            window, dataset=dataset, horizon=horizon,
            raw_values=forecaster.raw_values)
        if streamed.shape != offline.shape:
            raise ReplayParityError(
                f"streamed forecast at tick {tick} has shape "
                f"{streamed.shape}, offline batch path produced "
                f"{offline.shape}")
        if not np.array_equal(streamed, offline):
            raise ReplayParityError(
                f"streamed forecast at tick {tick} diverged from the "
                f"offline batch path (max abs diff "
                f"{np.max(np.abs(streamed - offline)):.3e})")
        compared += 1
    return compared
