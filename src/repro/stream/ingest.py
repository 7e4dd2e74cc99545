"""Online ingestion: timestamp validation, gap detection, fill policies.

:class:`StreamIngestor` is the front door of the streaming subsystem.
It owns one :class:`~repro.stream.state.SeriesState` per ``(tenant,
series)`` key, validates every tick at the boundary (monotonic
timestamps, values the float32 student can represent, aligned
intervals), and turns sampling gaps into explicit policy decisions
instead of silent misalignment:

* ``"error"`` — raise :class:`StreamGapError` (default: gaps are bugs);
* ``"ffill"`` — repeat the last observation into the missing ticks;
* ``"interpolate"`` — linearly interpolate between the last observation
  and the arriving one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .state import SeriesState

__all__ = ["GAP_POLICIES", "CheckedTick", "IngestResult", "StreamError",
           "StreamGapError", "StreamIngestor"]

GAP_POLICIES = ("error", "ffill", "interpolate")

#: Tolerated fractional deviation of a tick from the sampling grid.
_ALIGNMENT_TOLERANCE = 1e-6

#: Largest magnitude a tick may carry: windows are cast to float32 for
#: the student, and anything larger would become inf there.
_MAX_VALUE = float(np.finfo(np.float32).max)


class StreamError(ValueError):
    """A tick violated the stream contract (order, shape, finiteness)."""


class StreamGapError(StreamError):
    """Missing ticks under the ``error`` gap policy."""


@dataclass
class IngestResult:
    """What one :meth:`StreamIngestor.append` call did.

    Attributes
    ----------
    observed:
        Rows the caller actually supplied.
    filled:
        Rows synthesized by the gap policy (0 unless a gap occurred).
    rows:
        Total rows written (``observed + filled``).
    """

    observed: int
    filled: int

    @property
    def rows(self) -> int:
        return self.observed + self.filled


class CheckedTick:
    """A tick or run :meth:`StreamIngestor.check` accepted for one key.

    ``values`` is the caller's array as float64 in its own shape,
    ``rows`` the same data as ``(T, N)``, ``missing`` the ticks the gap
    policy fills before it.
    """

    __slots__ = ("values", "rows", "timestamp", "missing")

    def __init__(self, values: np.ndarray, rows: np.ndarray,
                 timestamp: float, missing: int):
        self.values = values
        self.rows = rows
        self.timestamp = timestamp
        self.missing = missing


@dataclass
class _KeyedStream:
    state: SeriesState
    last_timestamp: float | None = None
    gaps: int = field(default=0)


class StreamIngestor:
    """Validated multi-series ingestion into rolling per-key state.

    Parameters
    ----------
    input_len / num_variables:
        Shape contract for every per-key :class:`SeriesState`.
    interval:
        Expected spacing between consecutive ticks (e.g. the dataset's
        ``frequency_minutes``).  Timestamps must land on this grid.
    policy:
        Gap policy — one of :data:`GAP_POLICIES`.
    max_gap:
        Largest number of *missing* ticks a fill policy will bridge;
        longer outages raise :class:`StreamGapError` even under
        ``ffill``/``interpolate`` (filling hours of data is fiction).
    capacity:
        Ring capacity forwarded to :class:`SeriesState`.
    """

    def __init__(self, input_len: int, num_variables: int, *,
                 interval: float = 1.0, policy: str = "error",
                 max_gap: int = 16, capacity: int | None = None):
        if policy not in GAP_POLICIES:
            raise ValueError(
                f"policy must be one of {GAP_POLICIES}, got {policy!r}")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if max_gap < 0:
            raise ValueError("max_gap must be >= 0")
        self.input_len = int(input_len)
        self.num_variables = int(num_variables)
        self.interval = float(interval)
        self.policy = policy
        self.max_gap = int(max_gap)
        self.capacity = capacity
        self._streams: dict = {}

    # ------------------------------------------------------------------
    # key registry
    # ------------------------------------------------------------------
    def keys(self) -> list:
        return list(self._streams)

    def state(self, key) -> SeriesState:
        """The :class:`SeriesState` for ``key`` (must exist)."""
        try:
            return self._streams[key].state
        except KeyError:
            raise KeyError(f"unknown stream key {key!r}") from None

    def gaps(self, key) -> int:
        """How many gap events ``key`` has hit so far."""
        return self._streams[key].gaps if key in self._streams else 0

    def last_timestamp(self, key) -> float | None:
        stream = self._streams.get(key)
        return None if stream is None else stream.last_timestamp

    def drop(self, key) -> None:
        """Forget a series entirely (state, timestamps, gap counts)."""
        self._streams.pop(key, None)

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def export_key(self, key) -> dict:
        """Durable view of one keyed stream (series + timestamps + gaps)."""
        stream = self._streams.get(key)
        if stream is None:
            raise KeyError(f"unknown stream key {key!r}")
        return {
            "series": stream.state.export_state(),
            "last_timestamp": stream.last_timestamp,
            "gaps": stream.gaps,
        }

    def import_entries(self, entries: dict) -> None:
        """Replace every keyed stream with restored state, atomically.

        ``entries`` maps each key to an :meth:`export_key` payload.  All
        streams are rebuilt and validated against this ingestor's shape
        contract *before* the swap — a bad entry leaves the current
        state untouched.
        """
        rebuilt: dict = {}
        for key, entry in entries.items():
            state = SeriesState.from_state(entry["series"])
            if (state.input_len != self.input_len
                    or state.num_variables != self.num_variables):
                raise ValueError(
                    f"restored series {key!r} has shape contract "
                    f"({state.input_len}, {state.num_variables}), ingestor "
                    f"expects ({self.input_len}, {self.num_variables})")
            last = entry["last_timestamp"]
            rebuilt[key] = _KeyedStream(
                state=state,
                last_timestamp=None if last is None else float(last),
                gaps=int(entry["gaps"]))
        self._streams = rebuilt

    def _stream_for(self, key) -> _KeyedStream:
        stream = self._streams.get(key)
        if stream is None:
            stream = _KeyedStream(SeriesState(
                self.input_len, self.num_variables, capacity=self.capacity))
            self._streams[key] = stream
        return stream

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def check(self, key, timestamp: float, values) -> CheckedTick:
        """Validate one tick (``(N,)``) or tick run (``(T, N)``) for
        ``key`` without changing any state.

        :meth:`append` applies the result; the streaming forecaster
        logs the tick between the two (write-ahead).  An empty run is
        accepted and applies nothing, but only for a key that already
        has a stream (``KeyError`` otherwise).

        Raises
        ------
        StreamError
            Non-finite values (NaN, inf, or beyond the float32 range),
            wrong shape, non-monotonic or grid-misaligned timestamps.
        StreamGapError
            Missing ticks under ``policy="error"``, or a gap longer
            than ``max_gap`` under any policy.
        """
        values = np.asarray(values, dtype=np.float64)
        rows = values[None] if values.ndim == 1 else values
        if rows.ndim != 2 or rows.shape[1] != self.num_variables:
            raise StreamError(
                f"values for {key!r} must have shape "
                f"({self.num_variables},) or (T, {self.num_variables}), "
                f"got {values.shape}")
        stream = self._streams.get(key)
        timestamp = float(timestamp)
        if len(rows) == 0:
            if stream is None:
                raise KeyError(f"unknown stream key {key!r}")
            return CheckedTick(values, rows, timestamp, 0)
        # One reduction covers NaN (it propagates, and every comparison
        # with it is False), inf and values that would overflow the
        # float32 cast.
        if not np.maximum.reduce(np.abs(rows), axis=None) <= _MAX_VALUE:
            bad = int((~(np.abs(rows) <= _MAX_VALUE)).sum())
            raise StreamError(
                f"tick at {timestamp} for {key!r} carries {bad} "
                f"non-finite value(s) (NaN, inf or beyond float32)")

        missing = 0
        if stream is not None and stream.last_timestamp is not None:
            steps = (timestamp - stream.last_timestamp) / self.interval
            if steps <= 0:
                raise StreamError(
                    f"non-monotonic timestamp for {key!r}: {timestamp} "
                    f"after {stream.last_timestamp}")
            rounded = round(steps)
            if rounded < 1:
                # steps > 0 but rounds to 0: a duplicate tick with
                # float jitter — ingesting it would shift every later
                # window by one row.
                raise StreamError(
                    f"non-monotonic timestamp for {key!r}: {timestamp} "
                    f"advances less than one {self.interval}-interval "
                    f"from {stream.last_timestamp}")
            if abs(steps - rounded) > _ALIGNMENT_TOLERANCE * rounded:
                raise StreamError(
                    f"timestamp {timestamp} for {key!r} is off the "
                    f"{self.interval}-interval grid (last tick "
                    f"{stream.last_timestamp})")
            missing = int(rounded) - 1
            if missing > 0 and (self.policy == "error"
                                or missing > self.max_gap):
                detail = ("" if self.policy == "error"
                          else f" (> max_gap={self.max_gap})")
                raise StreamGapError(
                    f"{missing} missing tick(s) for {key!r}{detail}")
        return CheckedTick(values, rows, timestamp, missing)

    def append(self, key, timestamp: float, values: np.ndarray, *,
               checked: CheckedTick | None = None) -> IngestResult:
        """Ingest one tick (``(N,)``) or a tick run (``(T, N)``).

        A ``(T, N)`` run is interpreted as ``T`` consecutive ticks
        starting at ``timestamp`` — the bulk path for warm-starting a
        series from recent history.  The tick is validated by
        :meth:`check` (and raises as it does) unless ``checked`` passes
        that method's result for the same arguments.
        """
        tick = self.check(key, timestamp, values) if checked is None \
            else checked
        rows = tick.rows
        if len(rows) == 0:
            return IngestResult(observed=0, filled=0)
        stream = self._stream_for(key)
        filled = 0
        if tick.missing:
            filled = self._fill_gap(stream, tick.missing, rows[0])
            stream.gaps += 1  # only gaps that were actually handled
        stream.state.extend(rows)
        stream.last_timestamp = (tick.timestamp
                                 + (len(rows) - 1) * self.interval)
        return IngestResult(observed=len(rows), filled=filled)

    def _fill_gap(self, stream: _KeyedStream, missing: int,
                  next_row: np.ndarray) -> int:
        last_row = stream.state.last()
        if self.policy == "ffill":
            fill = np.tile(last_row, (missing, 1))
        else:  # interpolate
            # Rows at fractions 1/(missing+1) ... missing/(missing+1)
            # between the last observation and the arriving one.
            weights = (np.arange(1, missing + 1, dtype=np.float64)
                       / (missing + 1))[:, None]
            fill = last_row[None] * (1.0 - weights) + next_row[None] * weights
        stream.state.extend(fill)
        return missing
