"""Normalization layers: LayerNorm (paper Eq. 6) and RMSNorm (LLaMA-style).

Both run as fused autograd primitives: the forward is a handful of numpy
ufuncs and the backward applies the closed-form normalization gradient,
instead of recording ~10 elementwise graph nodes per call.  Norms sit
inside every transformer block of both the frozen CLM and the trained
models, so this is one of the hottest paths in the repo.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["LayerNorm", "RMSNorm"]


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` without numpy's Python
    ``_mean`` wrapper: the same ``np.add.reduce``, then a divide by the
    count as a float32 scalar.  Bitwise equal to ``np.mean``, whose
    float64 divide by an integer count rounds to the same float32
    quotient (see ``repro.infer.engine.emit_mean``)."""
    total = np.add.reduce(a, -1, None, None, True)
    return np.true_divide(total, np.asarray(a.shape[-1], dtype=a.dtype),
                          out=total)


def _fused_layer_norm(x: Tensor, gamma: Parameter, beta: Parameter,
                      eps: float) -> Tensor:
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    data = xhat * gamma.data + beta.data

    def backward(grad: np.ndarray) -> None:
        lead = tuple(range(grad.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((grad * xhat).sum(axis=lead), fresh=True)
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=lead), fresh=True)
        if x.requires_grad:
            g = grad * gamma.data
            g_mean = _mean_last(g)
            gx_mean = _mean_last(g * xhat)
            x._accumulate(inv * (g - g_mean - xhat * gx_mean), fresh=True)

    return Tensor._make(data, (x, gamma, beta), backward, "layer_norm")


def _fused_rms_norm(x: Tensor, gamma: Parameter, eps: float) -> Tensor:
    xd = x.data
    ms = np.mean(xd * xd, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    xhat = xd * inv
    data = xhat * gamma.data

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate(
                (grad * xhat).sum(axis=tuple(range(grad.ndim - 1))),
                fresh=True)
        if x.requires_grad:
            g = grad * gamma.data
            gx_mean = _mean_last(g * xd)
            x._accumulate(inv * (g - xd * (gx_mean / (ms + eps))),
                          fresh=True)

    return Tensor._make(data, (x, gamma), backward, "rms_norm")


class LayerNorm(Module):
    """Layer normalization over the trailing axis.

    Implements ``gamma * (x - mu) / (sigma + eps) + beta`` exactly as the
    paper's Eq. 6 (note the paper normalizes by ``sigma + eps`` rather
    than ``sqrt(var + eps)``; we use the conventional variance form which
    is numerically equivalent up to the epsilon placement).
    """

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(init.ones((features,)))
        self.beta = Parameter(init.zeros((features,)))

    def forward(self, x: Tensor) -> Tensor:
        return _fused_layer_norm(x, self.gamma, self.beta, self.eps)


class RMSNorm(Module):
    """Root-mean-square normalization used by the LLaMA-style backbone."""

    def __init__(self, features: int, eps: float = 1e-6):
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(init.ones((features,)))

    def forward(self, x: Tensor) -> Tensor:
        return _fused_rms_norm(x, self.gamma, self.eps)
