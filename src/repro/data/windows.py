"""Sliding-window forecasting datasets and chronological splits.

Follows the standard TSlib protocol the paper's baselines use: the series
is split chronologically into train/val/test segments; each split yields
``(history, future)`` window pairs of shape ``(H, N)`` / ``(M, N)``; the
validation and test splits may look back across their left border for
history (never for targets), so no future information ever leaks into
training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scaler import StandardScaler
from .series import MultivariateTimeSeries

__all__ = ["WindowDataset", "ForecastingData", "make_forecasting_data"]


@dataclass
class WindowDataset:
    """Sliding (history, future) windows over a contiguous value matrix."""

    values: np.ndarray
    history_length: int
    horizon: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be (T, N)")
        window = self.history_length + self.horizon
        if len(self.values) < window:
            raise ValueError(
                f"series of length {len(self.values)} too short for "
                f"window {window}")

    def __len__(self) -> int:
        return len(self.values) - self.history_length - self.horizon + 1

    def __getitem__(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        start = index
        mid = start + self.history_length
        stop = mid + self.horizon
        return self.values[start:mid], self.values[mid:stop]

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather windows into ``(B, H, N)`` and ``(B, M, N)`` arrays:
        one row gather each, the values ``self[i]`` holds."""
        starts = np.asarray(indices, dtype=np.intp).reshape(-1)
        count = len(self)
        if starts.size == 0:
            raise ValueError("batch of no windows")
        if starts.min() < -count or starts.max() >= count:
            raise IndexError(f"window index out of range [{-count}, {count})")
        starts = np.where(starts < 0, starts + count, starts)
        rows = starts[:, None] + np.arange(self.history_length + self.horizon)
        return (np.take(self.values, rows[:, :self.history_length], axis=0),
                np.take(self.values, rows[:, self.history_length:], axis=0))


@dataclass
class ForecastingData:
    """Scaled train/val/test window datasets plus the fitted scaler."""

    train: WindowDataset
    val: WindowDataset
    test: WindowDataset
    scaler: StandardScaler
    num_variables: int
    frequency_minutes: int
    name: str = ""


def make_forecasting_data(
    series: MultivariateTimeSeries,
    history_length: int = 96,
    horizon: int = 96,
    splits: tuple[float, float, float] = (0.7, 0.1, 0.2),
    train_fraction: float = 1.0,
) -> ForecastingData:
    """Prepare a series for supervised forecasting.

    Parameters
    ----------
    series:
        Raw multivariate series.
    history_length / horizon:
        ``H`` and ``M`` of paper Definition 1 (input 96 throughout the
        paper's evaluation).
    splits:
        Chronological train/val/test fractions (must sum to 1).
    train_fraction:
        Keep only the first fraction of the *training windows* — used by
        the few-shot (Table V) and scalability (Figure 7) experiments.
        The fraction is applied in window units, not raw rows: a split
        with ``W`` windows keeps ``max(1, round(W * fraction))`` of
        them, so ``len(train)`` scales linearly with the fraction even
        for short series where the ``H + M`` window overhead dominates.
    """
    if abs(sum(splits) - 1.0) > 1e-6:
        raise ValueError("splits must sum to 1")
    total = series.length
    train_end = int(total * splits[0])
    val_end = train_end + int(total * splits[1])

    scaler = StandardScaler().fit(series.values[:train_end])
    scaled = scaler.transform(series.values)

    lookback = history_length
    train_values = scaled[:train_end]
    val_values = scaled[train_end - lookback:val_end]
    test_values = scaled[val_end - lookback:]

    if train_fraction < 1.0:
        window = history_length + horizon
        num_windows = len(train_values) - window + 1
        keep_windows = max(1, int(round(num_windows * train_fraction)))
        # First k windows span the first (k - 1) + H + M rows.
        train_values = train_values[: keep_windows - 1 + window]

    return ForecastingData(
        train=WindowDataset(train_values, history_length, horizon),
        val=WindowDataset(val_values, history_length, horizon),
        test=WindowDataset(test_values, history_length, horizon),
        scaler=scaler,
        num_variables=series.num_variables,
        frequency_minutes=series.frequency_minutes,
        name=series.name,
    )
