"""Functional building blocks and loss functions.

All functions operate on :class:`repro.nn.tensor.Tensor` and are fully
differentiable.  The losses implement exactly the formulations used in the
TimeKD paper: SmoothL1 (Eq. 17), MSE (Eq. 31) and MAE (Eq. 32).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _call, _op, _reduce, _unbroadcast

__all__ = [
    "relu",
    "gelu",
    "silu",
    "softmax",
    "smooth_l1_loss",
    "mse_loss",
    "mae_loss",
    "huber_loss",
    "cross_entropy",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(0, x)`` (Eq. 7)."""
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation).

    Used by the GPT-2-style backbone feed-forward networks.
    """
    inner = (x + x * x * x * 0.044715) * _SQRT_2_OVER_PI
    return x * 0.5 * (inner.tanh() + 1.0)


def silu(x: Tensor) -> Tensor:
    """Sigmoid-weighted linear unit, used by the LLaMA-style SwiGLU FFN."""
    return x * x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return x.softmax(axis=axis)


def smooth_l1_loss(prediction: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """SmoothL1 loss (paper Eq. 17), reduced by mean.

    ``0.5 * d**2 / beta`` where ``|d| < beta`` and ``|d| - 0.5 * beta``
    elsewhere.  The paper uses ``beta = 1``.

    One graph node.  Its forward and backward run the ufuncs of the
    composite ``d = p - t; where(|d| < beta, d * d * (0.5 / beta),
    |d| - 0.5 * beta).mean()`` in that composite's order, with its
    dtype-coerced constants, so loss and gradients keep their bits.
    """
    if isinstance(target, np.ndarray):
        target = Tensor(target)
    else:
        target = prediction._coerce(target)
    p, t = prediction, target
    diff = _op(np.subtract, p.data, t.data)
    abs_diff = _op(np.abs, diff)
    inside = _op(np.less, abs_diff, beta)
    half_over_beta = np.asarray(0.5 / beta, dtype=diff.dtype)
    quadratic = _op(np.multiply, _op(np.multiply, diff, diff), half_over_beta)
    # np.where(inside, quadratic, linear), put in place into linear: the
    # same bits in the same layout (all three share diff's).
    loss = _op(np.subtract, abs_diff,
               np.asarray(0.5 * beta, dtype=abs_diff.dtype))
    _call(np.putmask, loss, inside, quadratic, whole=False)
    total = _reduce(np.add, loss, None)
    scale = np.asarray(1.0 / loss.size, dtype=total.dtype)

    def backward(grad: np.ndarray) -> None:
        # The mean's gradient, uniform over the elements, split by the
        # where; the quadratic branch reaches d through both operands
        # of d * d, the linear one through |d|.
        g = _op(np.multiply, grad, scale)
        quadratic = _op(np.multiply, _op(np.multiply, g, inside),
                        half_over_beta)
        d_grad = _op(np.multiply, quadratic, diff)
        _op(np.add, d_grad, _op(np.multiply, quadratic, diff), out=d_grad)
        linear = _op(np.multiply, g, _op(np.invert, inside))
        _op(np.add, d_grad, _op(np.multiply, linear, _op(np.sign, diff)),
            out=d_grad)
        if p.requires_grad:
            p._accumulate(_unbroadcast(d_grad, p.shape), fresh=True)
        if t.requires_grad:
            t._accumulate(_unbroadcast(_op(np.negative, d_grad), t.shape),
                          fresh=True)

    return Tensor._make(_op(np.multiply, total, scale), (p, t), backward,
                        "smooth_l1")


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Alias kept for API parity with common DL frameworks."""
    return smooth_l1_loss(prediction, target, beta=delta)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error (paper Eq. 31)."""
    if isinstance(target, np.ndarray):
        target = Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error (paper Eq. 32)."""
    if isinstance(target, np.ndarray):
        target = Tensor(target)
    return (prediction - target).abs().mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Token-level cross entropy for language-model pretraining.

    Parameters
    ----------
    logits:
        ``(..., vocab)`` unnormalized scores.
    targets:
        Integer array broadcastable to ``logits.shape[:-1]``; positions
        with value ``-1`` are ignored (padding).
    """
    targets = np.asarray(targets)
    log_probs = logits.log_softmax(axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    idx = targets.reshape(-1)
    mask = idx >= 0
    safe_idx = np.where(mask, idx, 0)
    rows = np.arange(flat.shape[0])
    picked = flat[rows, safe_idx]
    weights = mask.astype(np.float32)
    total = float(weights.sum()) or 1.0
    return -(picked * Tensor(weights)).sum() * (1.0 / total)
