"""``repro.stream`` — online ingestion and cadence-driven re-forecasting.

The third layer of the serving stack (embedding store → artifact
serving → **streaming**): live ticks flow through a validated
:class:`StreamIngestor` into fixed-capacity per-series ring buffers
(:class:`SeriesState`), and a :class:`StreamingForecaster` re-forecasts
on a configurable cadence through the existing
:class:`~repro.serve.ForecastService` micro-batching queue.  The
:func:`replay` harness proves the whole stack is bitwise identical to
offline batch prediction.
"""

from .forecaster import StreamingForecaster, StreamStats
from .ingest import (
    GAP_POLICIES,
    IngestResult,
    StreamError,
    StreamGapError,
    StreamIngestor,
)
from .replay import ReplayParityError, ReplayReport, replay, verify_parity
from .state import SeriesState

__all__ = [
    "StreamingForecaster",
    "StreamStats",
    "GAP_POLICIES",
    "IngestResult",
    "StreamError",
    "StreamGapError",
    "StreamIngestor",
    "ReplayParityError",
    "ReplayReport",
    "replay",
    "verify_parity",
    "SeriesState",
]
