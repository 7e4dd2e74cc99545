"""Per-series rolling state: a fixed-capacity ring buffer.

:class:`SeriesState` holds the trailing observations of one streamed
series in a *doubled* ring buffer: every row is written at physical
index ``i`` and ``i + capacity``, so any trailing window of up to
``capacity`` rows is one contiguous slice — :meth:`window` returns a
zero-copy view regardless of where the write head sits.  Appends are
O(1) (two row writes).  The buffer starts zeroed, so the two halves are
always equal: a durable copy (:meth:`SeriesState.export_state`) needs
only ``capacity`` rows to rebuild the doubled buffer bitwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeriesState"]


class SeriesState:
    """Trailing-window buffer for one ``(tenant, series)`` stream.

    Parameters
    ----------
    input_len:
        Window length :meth:`window` serves (the model's ``H``).
    num_variables:
        Variable count ``N`` of each observation row.
    capacity:
        Ring capacity (``>= input_len``); defaults to ``2 * input_len``
        so a window view survives ``capacity - input_len`` further
        appends before its rows are overwritten.
    """

    __slots__ = ("input_len", "num_variables", "capacity", "count",
                 "_buffer")

    def __init__(self, input_len: int, num_variables: int,
                 capacity: int | None = None):
        if input_len < 1:
            raise ValueError("input_len must be >= 1")
        if num_variables < 1:
            raise ValueError("num_variables must be >= 1")
        if capacity is None:
            capacity = 2 * input_len
        if capacity < input_len:
            raise ValueError(
                f"capacity {capacity} must be >= input_len {input_len}")
        self.input_len = int(input_len)
        self.num_variables = int(num_variables)
        self.capacity = int(capacity)
        #: Total rows ever appended (not capped by capacity).
        self.count = 0
        # Doubled buffer: row t lives at t % capacity AND t % capacity
        # + capacity, making every trailing window contiguous.  Zeroed,
        # not empty: slots never written are then equal in both halves.
        self._buffer = np.zeros((2 * self.capacity, self.num_variables),
                                dtype=np.float64)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def append(self, row: np.ndarray) -> None:
        """O(1) append of one ``(N,)`` observation."""
        self.extend(np.asarray(row, dtype=np.float64)[None])

    def extend(self, rows: np.ndarray) -> None:
        """Append ``(T, N)`` rows in one vectorized pass."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.num_variables:
            raise ValueError(
                f"rows must have shape (T, {self.num_variables}), "
                f"got {rows.shape}")
        if len(rows) == 1:
            # One tick, the streaming common case: two row writes, no
            # index arrays.
            slot = self.count % self.capacity
            self._buffer[slot] = rows[0]
            self._buffer[slot + self.capacity] = rows[0]
            self.count += 1
            return
        if len(rows) == 0:
            return
        # Only the trailing `capacity` rows can survive this call;
        # earlier ones would be overwritten within it.
        tail = rows[-self.capacity:]
        base = self.count + len(rows) - len(tail)
        slots = (base + np.arange(len(tail))) % self.capacity
        self._buffer[slots] = tail
        self._buffer[slots + self.capacity] = tail
        self.count += len(rows)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether a full ``input_len`` window is available."""
        return self.count >= self.input_len

    def window(self, copy: bool = False) -> np.ndarray:
        """Trailing ``(input_len, N)`` window.

        Zero-copy by default: the returned view stays valid for
        ``capacity - input_len`` further appends, after which its
        oldest rows are overwritten — pass ``copy=True`` (or copy at
        the call site) before handing the window to asynchronous
        consumers.
        """
        return self.tail(self.input_len, copy=copy)

    def tail(self, length: int, copy: bool = False) -> np.ndarray:
        """Trailing ``(length, N)`` rows as a contiguous view."""
        if not 1 <= length <= self.capacity:
            raise ValueError(
                f"length must be in [1, {self.capacity}], got {length}")
        if self.count < length:
            raise ValueError(
                f"series has {self.count} rows, needs {length}")
        start = (self.count - length) % self.capacity
        view = self._buffer[start: start + length]
        return view.copy() if copy else view

    def last(self) -> np.ndarray:
        """Most recent observation row (copy)."""
        return self.tail(1, copy=True)[0]

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Copy of everything needed to rebuild this state bitwise.

        The whole ring is exported (``capacity`` rows, not just the
        live window), so every later :meth:`tail` view of the restored
        state is identical to the uninterrupted process, whatever the
        write head position.  The second half of the doubled buffer
        only repeats the first and is left out.
        """
        return {
            "input_len": self.input_len,
            "num_variables": self.num_variables,
            "capacity": self.capacity,
            "count": self.count,
            "buffer": self._buffer[:self.capacity].copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SeriesState":
        """Rebuild a :class:`SeriesState` from :meth:`export_state`.

        ``buffer`` is one ring copy, ``(capacity, N)``, written into
        both halves in place.
        """
        restored = cls(int(state["input_len"]), int(state["num_variables"]),
                       capacity=int(state["capacity"]))
        buffer = np.asarray(state["buffer"], dtype=np.float64)
        single = (restored.capacity, restored.num_variables)
        if buffer.shape != single:
            raise ValueError(
                f"series buffer has shape {buffer.shape}, expected {single}")
        restored._buffer[:restored.capacity] = buffer
        restored._buffer[restored.capacity:] = buffer
        count = int(state["count"])
        if count < 0:
            raise ValueError(f"series count must be >= 0, got {count}")
        restored.count = count
        return restored
