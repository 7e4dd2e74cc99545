"""Reversible Instance Normalization (Kim et al., ICLR 2022).

The student model normalizes each history window per instance and
variable, and de-normalizes its forecasts with the same statistics —
mitigating the train/test distribution shift the paper cites RevIN for.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, Parameter, Tensor
from ..nn import init
from ..nn.tensor import _moments, _op

__all__ = ["RevIN"]


class RevIN(Module):
    """Per-instance, per-variable normalization with learnable affine.

    Operates on ``(B, T, N)`` tensors; statistics are computed over the
    time axis during :meth:`normalize` and reused by :meth:`denormalize`.
    """

    def __init__(self, num_variables: int, eps: float = 1e-5,
                 affine: bool = True):
        super().__init__()
        self.num_variables = num_variables
        self.eps = eps
        self.affine = affine
        if affine:
            self.gamma = Parameter(init.ones((num_variables,)))
            self.beta = Parameter(init.zeros((num_variables,)))
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def normalize(self, x: Tensor) -> Tensor:
        """Normalize ``(B, T, N)`` over time; remember the statistics.

        The statistics are constants to autograd, but they change with
        every batch, so their calls go through ``_op`` like an op's."""
        mean, var = _moments(x.data, 1)
        std = _op(np.sqrt, _op(np.add, var, self.eps))
        self._mean, self._std = mean, std
        out = (x - Tensor(mean)) / Tensor(std)
        if self.affine:
            out = out * self.gamma + self.beta
        return out

    def denormalize(self, y: Tensor) -> Tensor:
        """Invert :meth:`normalize` on forecasts ``(B, M, N)``."""
        if self._mean is None or self._std is None:
            raise RuntimeError("denormalize called before normalize")
        out = y
        if self.affine:
            out = (out - self.beta) / (self.gamma + self.eps)
        return out * Tensor(self._std) + Tensor(self._mean)

    def forward(self, x: Tensor, mode: str = "norm") -> Tensor:
        if mode == "norm":
            return self.normalize(x)
        if mode == "denorm":
            return self.denormalize(x)
        raise ValueError(f"unknown mode {mode!r}")
