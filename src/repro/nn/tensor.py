"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` substrate.  It provides a
:class:`Tensor` type that records a computation graph as operations are
applied and can back-propagate gradients with :meth:`Tensor.backward`.

The design follows the classic define-by-run tape:

* every differentiable operation returns a new :class:`Tensor` whose
  ``_backward`` closure knows how to route the output gradient to the
  operation inputs; recording a node also counts one more consumer on
  each interior input;
* :meth:`Tensor.backward` sorts the interior nodes depth-first (leaves,
  which have no closure, stay out of the walk) and runs the closures in
  reverse order.  The order fixes the order in which a tensor with
  several consumers sums their gradients, so it is part of the bitwise
  contract: a creation-order walk sums the q/k/v gradients of a normed
  input differently and moves the trained model's last bits;
* a tensor's first gradient is adopted, not copied, when the closure
  built the array fresh or when the tensor has exactly one consumer
  (nothing else will add into it).  Every other first gradient is
  copied, so a tensor with several consumers never aliases another's
  array;
* broadcasting is supported for elementwise operations and batched matrix
  multiplication, with gradients reduced back to the input shapes by
  :func:`_unbroadcast`;
* the ops the TimeKD training step runs make each numpy call through
  :func:`_op`, :func:`_reduce`, :func:`_call` or :func:`_reshape`,
  forward and backward alike; while a :class:`repro.nn.tape.Tape`
  records (``_TAPE``), those append the call, bound to the array it
  wrote.  Outside a recording that costs one ``None`` test per call.

All tensors store ``float32`` data unless explicitly created otherwise;
this halves memory traffic on the CPU-only substrate used for the TimeKD
reproduction.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones"]

_GRAD_ENABLED = True
#: The tape recording the current step, or None (see repro.nn.tape).
_TAPE = None


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used during evaluation and when running the frozen language-model
    teacher so that activations are not retained.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def recording():
    """The :class:`~repro.nn.tape.Tape` recording the current step, or
    None."""
    return _TAPE


@contextlib.contextmanager
def record_into(tape):
    """Append the calls of every op run inside the block to ``tape``."""
    global _TAPE
    if _TAPE is not None:
        raise RuntimeError("a step is already being recorded")
    _TAPE = tape
    try:
        yield tape
    finally:
        _TAPE = None


def _abandon() -> None:
    """Stop the recording: a leaf gets its first gradient this step.

    That gradient becomes a new array bound to the leaf, and whatever
    binds it next (an optimizer's flat buffer) is an array the tape
    never wrote, so the tape could never replay; the rest of the step
    runs through autograd alone."""
    global _TAPE
    _TAPE.abandoned = True
    _TAPE = None


def _op(fn, *args, out=None):
    """``fn(*args)`` (into ``out`` when given), recorded on the tape
    being recorded, if any.  Returns the result, as the tape's buffer
    while recording."""
    result = fn(*args) if out is None else fn(*args, out)
    if _TAPE is not None:
        result = _TAPE.ufunc(fn, *args, out=result)
    return result


def _reduce(ufunc, a: np.ndarray, axis, keepdims: bool = False):
    """``ufunc.reduce(a, axis, keepdims=keepdims)`` (what ``a.sum`` and
    ``a.max`` call), recorded like :func:`_op`."""
    result = ufunc.reduce(a, axis, None, None, keepdims)
    if _TAPE is not None:
        result = _TAPE.reduce(ufunc, a, axis, result, keepdims)
    return result


def _call(fn, *args, whole: bool = True) -> None:
    """``fn(*args)``, a call writing into its first argument (all of it
    unless ``whole`` is false), recorded like :func:`_op`."""
    fn(*args)
    if _TAPE is not None:
        _TAPE.call(fn, args, whole)


def _reshape(a: np.ndarray, shape) -> np.ndarray:
    """``a.reshape(shape)``; a copy it makes is recorded."""
    result = a.reshape(shape)
    if _TAPE is not None:
        _TAPE.reshaped(result, a)
    return result


def _astype(a: np.ndarray, dtype) -> np.ndarray:
    """``a.astype(dtype)``: a copy, recorded."""
    result = np.empty_like(a, dtype=dtype)
    _call(np.copyto, result, a)
    return result


def _mean(a: np.ndarray, axis: int) -> np.ndarray:
    """``a.mean(axis, keepdims=True)`` for a float32 ``a``: the same
    sum, divided by the count as a float32 scalar.  numpy divides in
    float64 and rounds the quotient to float32; for a quotient of two
    float32 values (a count below 2**24 is one) that double rounding
    gives the same float32, float64 having more than twice float32's
    precision, so the bits are equal."""
    total = _reduce(np.add, a, axis, True)
    return _op(np.true_divide, total, np.asarray(a.shape[axis], a.dtype),
               out=total)


def _moments(a: np.ndarray, axis: int):
    """``(a.mean(axis, keepdims=True), a.var(axis, keepdims=True))``.

    While training or recording, numpy's own steps, each through
    :func:`_op` or :func:`_reduce` so a tape replays them without
    numpy's Python wrappers: sum and divide by the count (as
    :func:`_mean`), then center, square, sum and divide.  A ``no_grad``
    forward outside a recording (``StudentModel.predict``, the
    reference ``test_compiled_engine_speedup`` measures the compiled
    engine against) calls ``mean`` and ``var`` as it always did.  Both
    give the same bits; ``tests/test_tape.py`` checks them."""
    if _TAPE is None and not _GRAD_ENABLED:
        return a.mean(axis, keepdims=True), a.var(axis, keepdims=True)
    mean = _mean(a, axis)
    centered = _op(np.subtract, a, mean)
    return mean, _mean(_op(np.multiply, centered, centered), axis)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Summation runs over the leading axes that were added by broadcasting
    and over any axis whose original extent was 1.  Returns ``grad``
    itself when the shapes already match, else a fresh array.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _reduce(np.add, grad, tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = _reduce(np.add, grad, axes, keepdims=True)
    return _reshape(grad, shape)


def _expand_reduced(grad, shape: tuple[int, ...], axis, keepdims: bool):
    """``grad`` of a reduction over ``axis``, reshaped to broadcast
    against the reduced input's ``shape``."""
    if axis is None or keepdims:
        return grad
    axes = axis if isinstance(axis, tuple) else (axis,)
    reduced = {ax % len(shape) for ax in axes}
    return _reshape(grad, [1 if i in reduced else n
                           for i, n in enumerate(shape)])


def _as_array(value, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    array = np.asarray(value, dtype=dtype)
    return array


class Tensor:
    """A numpy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` by default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    # ``_consumers`` is set only on interior nodes (see ``_make``).
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_op", "_consumers")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = _as_array(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op = ""

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        out._op = "detach"
        return out

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        if _TAPE is not None:
            _TAPE.node(op, parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = requires
        out._op = op
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._consumers = 0
            for parent in out._parents:
                if parent._backward is not None:
                    parent._consumers += 1
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        A first gradient of this tensor's dtype is adopted without a
        copy when ``fresh`` (the caller built the array and keeps no
        other use of it) or when this is an interior tensor with exactly
        one consumer, so no later gradient adds into the array.  Callers
        pass dense arrays only (a gapped or broadcast view is copied
        first): an adopted array then has the strides a copy would have,
        and every later op on it computes the same bits.
        """
        if self.grad is None:
            if _TAPE is not None and self._backward is None:
                _abandon()
            if grad.dtype == self.data.dtype and (
                    fresh or (self._backward is not None
                              and self._consumers == 1)):
                self.grad = grad
            else:
                self.grad = _astype(grad, self.data.dtype)
        else:
            _op(np.add, self.grad, grad, out=self.grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Interior gradients start from ``None`` on every call, so a graph
        can be backpropagated again; leaves (parameters and inputs) keep
        accumulating until they are zeroed.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=self.data.dtype)

        # Depth-first postorder over the interior nodes only: a leaf has
        # no parents, so leaving it out moves no interior node's place.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = []
        if self._backward is not None:
            stack.append((self, False))
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            node.grad = None
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad, fresh=True)
        for node in reversed(order):
            if node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = _op(np.add, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                ga = _unbroadcast(grad, a.shape)
                a._accumulate(ga, fresh=ga is not grad)
            if b.requires_grad:
                gb = _unbroadcast(grad, b.shape)
                b._accumulate(gb, fresh=gb is not grad)

        return Tensor._make(data, (a, b), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = _op(np.subtract, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                ga = _unbroadcast(grad, a.shape)
                a._accumulate(ga, fresh=ga is not grad)
            if b.requires_grad:
                b._accumulate(_unbroadcast(_op(np.negative, grad), b.shape),
                              fresh=True)

        return Tensor._make(data, (a, b), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = _op(np.multiply, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(_op(np.multiply, grad, b.data),
                                           a.shape), fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(_op(np.multiply, grad, a.data),
                                           b.shape), fresh=True)

        return Tensor._make(data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = _op(np.true_divide, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(_op(np.true_divide, grad, b.data),
                                           a.shape), fresh=True)
            if b.requires_grad:
                # -grad * a / (b * b), in that evaluation order.
                scaled = _op(np.multiply, _op(np.negative, grad), a.data)
                b._accumulate(_unbroadcast(_op(
                    np.true_divide, scaled, _op(np.multiply, b.data, b.data)),
                    b.shape), fresh=True)

        return Tensor._make(data, (a, b), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self
        data = -a.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(-grad, fresh=True)

        return Tensor._make(data, (a,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self
        data = a.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * exponent * a.data ** (exponent - 1),
                              fresh=True)

        return Tensor._make(data, (a,), backward, "pow")

    # ------------------------------------------------------------------
    # transcendental / nonlinear primitives
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * data, fresh=True)

        return Tensor._make(data, (a,), backward, "exp")

    def log(self) -> "Tensor":
        a = self
        data = np.log(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad / a.data, fresh=True)

        return Tensor._make(data, (a,), backward, "log")

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * 0.5 / np.maximum(data, 1e-12), fresh=True)

        return Tensor._make(data, (a,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * (1.0 - data * data), fresh=True)

        return Tensor._make(data, (a,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        a = self
        data = 1.0 / (1.0 + np.exp(-a.data))

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * data * (1.0 - data), fresh=True)

        return Tensor._make(data, (a,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        a = self
        mask = _op(np.greater, a.data, 0)
        data = _op(np.multiply, a.data, mask)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_op(np.multiply, grad, mask), fresh=True)

        return Tensor._make(data, (a,), backward, "relu")

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)
        data = np.abs(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * sign, fresh=True)

        return Tensor._make(data, (a,), backward, "abs")

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                full = np.empty(a.shape, dtype=grad.dtype)
                full[...] = _expand_reduced(grad, a.shape, axis, keepdims)
                a._accumulate(full, fresh=True)

        return Tensor._make(data, (a,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= a.shape[ax % a.ndim]
        # One node computing what ``sum * (1.0 / count)`` did, with the
        # same dtype-coerced scale, so forward and gradient keep their
        # bits.
        total = _reduce(np.add, a.data, axis, keepdims)
        scale = np.asarray(1.0 / count, dtype=total.dtype)
        data = _op(np.multiply, total, scale)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                full = np.empty(a.shape, dtype=scale.dtype)
                _op(np.multiply, _expand_reduced(grad, a.shape, axis, keepdims),
                    scale, out=full)
                a._accumulate(full, fresh=True)

        return Tensor._make(data, (a,), backward, "mean")

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            g = grad
            expanded = data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(ax % a.ndim for ax in axes):
                    g = np.expand_dims(g, ax)
                    expanded = np.expand_dims(expanded, ax)
            mask = a.data == expanded
            counts = mask.sum(axis=axis, keepdims=True)
            a._accumulate(mask * g / counts, fresh=True)

        return Tensor._make(data, (a,), backward, "max")

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        data = _reshape(a.data, shape)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_reshape(grad, a.shape))

        return Tensor._make(data, (a,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        a = self
        data = a.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (a,), backward, "transpose")

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        a = self
        data = a.data[key]

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                full = np.zeros_like(a.data)
                np.add.at(full, key, grad)
                a._accumulate(full, fresh=True)

        return Tensor._make(data, (a,), backward, "getitem")

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = _op(np.matmul, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                ga = _op(np.matmul, grad, b.data.swapaxes(-1, -2))
                if a.ndim == 1:
                    ga = _reduce(np.add, ga, tuple(range(ga.ndim - 1))) if ga.ndim > 1 else ga
                    a._accumulate(_reshape(ga, a.shape), fresh=True)
                else:
                    a._accumulate(_unbroadcast(ga, a.shape), fresh=True)
            if b.requires_grad:
                gb = _op(np.matmul, a.data.swapaxes(-1, -2), grad)
                if b.ndim == 1:
                    gb = _reduce(np.add, gb, tuple(range(gb.ndim - 1))) if gb.ndim > 1 else gb
                    b._accumulate(_reshape(gb, b.shape), fresh=True)
                else:
                    b._accumulate(_unbroadcast(gb, b.shape), fresh=True)

        return Tensor._make(data, (a, b), backward, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # composite / fused primitives used throughout the models
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax as a fused primitive."""
        a = self
        peak = _reduce(np.maximum, a.data, axis, True)
        exps = _op(np.exp, _op(np.subtract, a.data, peak))
        data = _op(np.true_divide, exps, _reduce(np.add, exps, axis, True))

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                dot = _reduce(np.add, _op(np.multiply, grad, data), axis, True)
                a._accumulate(_op(np.multiply, data,
                                  _op(np.subtract, grad, dot)), fresh=True)

        return Tensor._make(data, (a,), backward, "softmax")

    def log_softmax(self, axis: int = -1) -> "Tensor":
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_z
        soft = np.exp(data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True),
                              fresh=True)

        return Tensor._make(data, (a,), backward, "log_softmax")

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Embedding-style gather along ``axis`` with integer indices."""
        a = self
        idx = np.asarray(indices)
        data = np.take(a.data, idx, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                full = np.zeros_like(a.data)
                if axis == 0:
                    np.add.at(full, idx, grad)
                else:  # pragma: no cover - only axis 0 used in practice
                    moved = np.moveaxis(full, axis, 0)
                    np.add.at(moved, idx, np.moveaxis(grad, axis, 0))
                a._accumulate(full, fresh=True)

        return Tensor._make(data, (a,), backward, "take")


# ----------------------------------------------------------------------
# free functions over tensors
# ----------------------------------------------------------------------
def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like ``data``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    parts = list(tensors)
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                # A slice has gaps; its dense copy is what a copying
                # first accumulation made.
                part._accumulate(grad[tuple(slicer)].copy(order="K"),
                                 fresh=True)

    return Tensor._make(data, parts, backward, "concatenate")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    parts = list(tensors)
    data = np.stack([p.data for p in parts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, part in enumerate(parts):
            if part.requires_grad:
                part._accumulate(moved[i].copy(order="K"), fresh=True)

    return Tensor._make(data, parts, backward, "stack")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select; ``condition`` is a constant boolean array."""
    cond = np.asarray(condition, dtype=bool)
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape), fresh=True)

    return Tensor._make(data, (a, b), backward, "where")
