"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from .module import Module
from .tensor import Tensor, _astype, _op, recording

__all__ = ["Dropout"]


class Dropout(Module):
    """Randomly zero activations with probability ``p`` during training.

    Uses inverted scaling so evaluation is the identity function.
    """

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        tape = recording()
        if tape is not None:
            tape.guard(self, "training")
            tape.guard(self, "p")
        if not self.training or self.p == 0.0:
            return x
        if tape is not None:
            # Each replay draws the next mask from this generator, in
            # the order autograd would.
            tape.guard(self, "_rng")
        keep = 1.0 - self.p
        # repro: allow[dtype-hygiene] — the draws rng.random(shape) makes
        draw = np.empty(x.shape, dtype=np.float64)
        _op(self._rng.random, None, np.float64, out=draw)
        mask = _op(np.true_divide,
                   _astype(_op(np.less, draw, keep), np.float32), keep)
        return x * Tensor(mask)
