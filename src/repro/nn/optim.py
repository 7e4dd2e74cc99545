"""First-order optimizers: SGD, Adam, AdamW — plus gradient clipping.

The paper trains with AdamW; SGD and Adam are provided for ablations and
tests.

Every optimizer works on flat buffers (the multi-tensor, "foreach"
layout).  At construction it packs its parameters into one contiguous
float32 buffer and rebinds each ``p.data`` to a view of its slice.
Gradients, moments and scratch each get one flat buffer as well.  A
parameter's ``.grad`` is bound to its slice of the gradient buffer at
its first step (or clip); after ``zero_grad(set_to_none=False)`` the
next backward accumulates straight into that slice.  ``step()``,
``zero_grad()`` and :func:`clip_grad_norm` then run a few whole-buffer
ufuncs instead of a loop of ufuncs per tensor.  The update is
elementwise, so every parameter ends each step bitwise equal to the
per-tensor update.  Three behaviours of that per-tensor loop are kept:

* A listed parameter whose grad is None is skipped: no decay, no moment
  update and no share of the clip norm.  The flat pass runs over the
  contiguous runs of parameters whose grad is present.
* A tensor listed more than once is stepped once per listing: decayed,
  counted in the clip norm, scaled and updated again, each extra
  listing with its own moments, by a small per-listing pass after the
  flat one.
* A parameter whose ``.data`` was rebound between steps (as
  :meth:`Module.load_state_dict` does) is copied back into the buffer
  before the next step, so the optimizer never updates a stale copy.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "clip_grad_norm"]


def clip_grad_norm(optimizer: "Optimizer", max_norm: float) -> float:
    """Scale ``optimizer``'s gradients in place so their global L2 norm
    is <= ``max_norm``.

    Returns the pre-clipping norm.  The squared norm accumulates in
    float64: a float32 dot product over a large parameter group both
    loses low-order bits and can overflow to ``inf`` (float32 tops out
    at ~3.4e38, i.e. gradient magnitudes of only ~1.8e19), which would
    silently zero every gradient via ``scale = max_norm / inf``.  The
    einsum accumulates through a small buffered cast — no full-size
    float64 temporary per step.
    """
    grad = optimizer._grad
    segments = [at for at, _ in optimizer._segments()]
    total = math.sqrt(sum(
        # repro: allow[dtype-hygiene] — float32 dot overflows to inf
        float(np.einsum("i,i->", grad[at], grad[at], dtype=np.float64))
        for at in segments))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for at in segments:
            np.multiply(grad[at], scale, out=grad[at])
    return total


class Optimizer:
    """Base optimizer: a parameter list packed into flat buffers.

    ``parameters`` keeps every trainable listing, repeats included.
    Subclasses keep their per-element state in :meth:`_state_buffer`
    buffers and implement ``step`` over :meth:`_segments`.
    """

    def __init__(self, parameters, lr: float):
        self.parameters: list[Tensor] = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr
        first: dict[int, int] = {}
        self._params: list[Tensor] = []
        repeated = []
        for p in self.parameters:
            if id(p) in first:
                repeated.append(first[id(p)])
            else:
                first[id(p)] = len(self._params)
                self._params.append(p)
        self._slices, offset = [], 0
        for p in self._params:
            self._slices.append(slice(offset, offset + p.size))
            offset += p.size
        self._flat = np.empty(offset, dtype=np.float32)
        self._grad = np.zeros(offset, dtype=np.float32)
        self._data = self._views(self._flat)
        self._grads = self._views(self._grad)
        for p, view in zip(self._params, self._data):
            view[...] = p.data
            p.data = view
        # Each listing after a tensor's first: the tensor's index, and
        # the listing's own slice at the end of the state buffers.
        self._repeats = []
        for index in repeated:
            size = self._params[index].size
            self._repeats.append((index, slice(offset, offset + size)))
            offset += size
        self._state_size = offset

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[at].reshape(p.shape)
                for p, at in zip(self._params, self._slices)]

    def _state_buffer(self) -> np.ndarray:
        """A zeroed per-element state buffer, extra listings included."""
        return np.zeros(self._state_size, dtype=np.float32)

    def _segments(self) -> list[tuple[slice, slice]]:
        """Bind fresh grads and rebound data to the flat buffers.

        Returns the ``(flat slice, state slice)`` pairs a step updates:
        each run of parameters whose grad is present, then each extra
        listing of a present parameter.
        """
        runs, start = [], None
        for p, data, grad, at in zip(self._params, self._data,
                                     self._grads, self._slices):
            if p.data is not data:
                data[...] = p.data
                p.data = data
            if p.grad is None:
                if start is not None:
                    runs.append(slice(start, at.start))
                    start = None
                continue
            if p.grad is not grad:
                grad[...] = p.grad
                p.grad = grad
            if start is None:
                start = at.start
        if start is not None:
            runs.append(slice(start, self._flat.size))
        segments = [(run, run) for run in runs]
        for index, state in self._repeats:
            if self._params[index].grad is not None:
                segments.append((self._slices[index], state))
        return segments

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Reset gradients before the next backward pass.

        ``set_to_none=False`` zeroes the flat gradient buffer in place
        instead of dropping it, so ``Tensor._accumulate`` adds into the
        same allocation every step.  (``None`` remains the default: it
        lets ``step()`` skip untouched parameters entirely.)  A grad not
        yet bound to the buffer is zeroed where it is; the next step
        binds it.
        """
        if set_to_none:
            for p in self._params:
                p.grad = None
            return
        self._grad.fill(0.0)
        for p, grad in zip(self._params, self._grads):
            if p.grad is not None and p.grad is not grad:
                p.grad.fill(0.0)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters, lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = self._state_buffer()

    def step(self) -> None:
        for at, state in self._segments():
            p, grad = self._flat[at], self._grad[at]
            if self.momentum:
                v = self._velocity[state]
                v *= self.momentum
                v += grad
                p -= self.lr * v
            else:
                p -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with allocation-free steps."""

    def __init__(self, parameters, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = self._state_buffer()
        self._v = self._state_buffer()
        self._update = self._state_buffer()
        self._scratch = None  # allocated by the first coupled-decay step
        self._t = 0

    def step(self) -> None:
        self._adam(self._segments())

    def _adam(self, segments) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for at, state in segments:
            p, grad = self._flat[at], self._grad[at]
            m, v = self._m[state], self._v[state]
            update = self._update[state]
            if self.weight_decay:
                if self._scratch is None:
                    self._scratch = self._state_buffer()
                scratch = self._scratch[state]
                np.multiply(p, self.weight_decay, out=scratch)
                scratch += grad
                grad = scratch
            # v <- beta2 * v + (1 - beta2) * grad^2
            v *= self.beta2
            np.multiply(grad, grad, out=update)
            update *= 1.0 - self.beta2
            v += update
            # m <- beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=update)
            m += update
            # p <- p - lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=update)
            np.sqrt(update, out=update)
            update += self.eps
            np.divide(m, update, out=update)
            update *= self.lr / bias1
            p -= update


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    This is the optimizer TimeKD uses (paper Section V-A4).
    """

    def __init__(self, parameters, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 1e-2):
        super().__init__(parameters, lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def step(self) -> None:
        segments = self._segments()
        if self.decoupled_weight_decay:
            decay = self.lr * self.decoupled_weight_decay
            for at, _ in segments:
                self._flat[at] *= 1.0 - decay
        self._adam(segments)
