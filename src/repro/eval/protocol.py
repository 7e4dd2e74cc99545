"""Standard train/evaluate protocol shared by all baselines.

TimeKD has its own two-phase trainer; every baseline trains with this
generic supervised loop (SmoothL1 objective, AdamW, gradient clipping,
best-validation selection) so comparisons are apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..baselines.base import ForecastModel
from ..data.loader import DataLoader
from ..data.windows import ForecastingData, WindowDataset
from ..nn import AdamW, clip_grad_norm, no_grad
from ..nn.functional import smooth_l1_loss
from ..nn.tensor import Tensor

__all__ = ["TrainSettings", "TrainReport", "train_forecast_model",
           "evaluate_forecast_model"]


@dataclass(frozen=True)
class TrainSettings:
    """Optimization knobs for the shared baseline protocol."""

    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    grad_clip: float = 1.0
    max_batches_per_epoch: int | None = None
    seed: int = 0


@dataclass
class TrainReport:
    """What one training run produced."""

    train_losses: list[float]
    val_mse: list[float]
    train_seconds: float
    epochs_run: int


def train_forecast_model(
    model: ForecastModel,
    data: ForecastingData,
    settings: TrainSettings | None = None,
) -> TrainReport:
    """Train ``model`` on ``data.train``, selecting by ``data.val`` MSE."""
    settings = settings or TrainSettings()
    optimizer = AdamW(model.parameters(), lr=settings.learning_rate,
                      weight_decay=settings.weight_decay)
    train_losses: list[float] = []
    val_history: list[float] = []
    best_val = float("inf")
    best_state = None
    start = time.perf_counter()
    for epoch in range(settings.epochs):
        model.train()
        loader = DataLoader(data.train, batch_size=settings.batch_size,
                            shuffle=True, seed=settings.seed + epoch,
                            max_batches=settings.max_batches_per_epoch)
        epoch_loss, batches = 0.0, 0
        for history, future in loader:
            prediction = model(history.astype(np.float32))
            loss = smooth_l1_loss(prediction, Tensor(future.astype(np.float32)))
            model.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer, settings.grad_clip)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        train_losses.append(epoch_loss / max(batches, 1))

        val = evaluate_forecast_model(model, data.val)["mse"]
        val_history.append(val)
        if val < best_val:
            best_val = val
            best_state = model.state_dict()
    if best_state is not None:
        model.load_state_dict(best_state)
    elapsed = time.perf_counter() - start
    return TrainReport(train_losses, val_history, elapsed, settings.epochs)


def evaluate_forecast_model(
    model: ForecastModel, dataset: WindowDataset, batch_size: int = 32
) -> dict[str, float]:
    """MSE/MAE over every window of ``dataset`` (batched; see trainer)."""
    model.eval()
    total_se, total_ae, count = 0.0, 0.0, 0
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with no_grad():
        for history, future in loader:
            prediction = model(history.astype(np.float32))
            diff = prediction.data - future
            total_se += float((diff ** 2).sum())
            total_ae += float(np.abs(diff).sum())
            count += diff.size
    return {"mse": total_se / max(count, 1), "mae": total_ae / max(count, 1)}
