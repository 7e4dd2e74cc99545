"""A training step compiled to one flat tape of numpy calls.

:class:`CompiledStep` runs a loss function's forward and backward.  The
first time it sees a batch layout it runs them through autograd while a
:class:`Tape` records: every op of the forward, the losses and the
backward appends the numpy call it made, bound to write into the array
it produced.  Every later batch of that layout copies its inputs into
the recording's input buffers and replays the list (:meth:`Tape.replay`)
without building a graph.

The arrays of the recording step *are* the tape's buffers.  So a view
stays a view of the buffer it was taken from, an adopted gradient stays
the array its producer writes, and every replayed call is the ufunc or
GEMM autograd ran, on operands of the same shapes, dtypes and strides,
with the same dtype-coerced constants, in the same order: forward in
creation order, then the backward in :meth:`Tensor.backward`'s own
depth-first order.  A parameter's gradient accumulates where autograd
accumulated it, which after the first optimizer step is that
optimizer's flat gradient buffer.  Loss and parameters therefore end
each step with the bytes the autograd step gives them.

Values the graph alone does not show are recorded as tape ops too:
``RevIN``'s statistics, a forward that ran under ``no_grad`` (it builds
no graph, but its outputs change with every batch) and dropout masks,
drawn at replay from the module's own generator in autograd's order.

A tape holds parameter and gradient arrays that others can rebind:
``Optimizer.__init__`` and ``Module.load_state_dict`` replace
``p.data``, ``Optimizer._segments`` replaces ``p.grad``.  Each tape
keeps the arrays every parameter it read had when it was recorded (and
the dropout state it drew with) and checks them by identity before
every replay; on any mismatch the step records again.  No tape is ever
replayed against an array it did not record.  So a step in which a
parameter gets its first gradient is not kept at all: that gradient is
a new array, and the optimizer binds it to its own buffer right after.
The recording stops there and the step finishes through autograd; the
next step, with every gradient bound, records the tape that replays.
A training phase therefore runs two autograd steps for its full batch
and one for its tail batch, and pays off once each layout replays a
few times.

Recording is process-wide, like :func:`~repro.nn.tensor.no_grad`: run
one step at a time.  An op with no tape form raises while recording.
Inputs reach the model as given, so pass them in the dtype it computes
in: a cast the model made of an input would be a copy no op records.
Attributes a forward leaves on modules (RevIN's statistics, attention
maps kept for analysis) hold the recording step's values after a
replay; read them after a forward of your own.
"""

from __future__ import annotations

import gc
import weakref
from functools import partial
from itertools import chain

import numpy as np

from .module import Parameter
from .tensor import record_into

__all__ = ["CompiledStep", "Tape"]

#: Graph ops a tape can replay (views need no call: they follow their
#: base buffer).
REPLAYABLE = frozenset({
    "add", "sub", "mul", "div", "matmul", "reshape", "transpose",
    "softmax", "relu", "mean", "layer_norm", "smooth_l1"})


class _Slot:
    """Where one array the tape overwrites in full lives on replay.

    The recording keeps only a weak reference to such an array, so the
    autograd step frees it as usual; :meth:`Tape.finish` gives each
    slot an offset in one arena, shared with slots whose lifetimes on
    the tape do not overlap.  An operand that is the whole array is
    recorded as its slot, a view of it as a :class:`_View`."""

    __slots__ = ("ref", "layout", "nbytes", "first", "last", "offset",
                 "array")

    def __init__(self, owner: np.ndarray, index: int):
        self.ref = weakref.ref(owner)
        self.layout = (owner.shape, owner.dtype, owner.strides)
        self.nbytes = owner.nbytes
        self.first = self.last = index
        self.offset = 0

    def bind(self, arena: np.ndarray) -> None:
        shape, dtype, strides = self.layout
        self.array = np.ndarray(shape, dtype, buffer=arena,
                                offset=self.offset, strides=strides)


class _View:
    """An operand in a slot: its layout relative to the slot's start."""

    __slots__ = ("slot", "layout")

    def __init__(self, slot: _Slot, array: np.ndarray, owner: np.ndarray):
        self.slot = slot
        self.layout = (array.shape, array.dtype, array.strides,
                       _offset(array, owner))

    def bind(self, arena: np.ndarray, bound: dict) -> np.ndarray:
        """The operand in ``arena``; one array per distinct view."""
        key = (id(self.slot), self.layout)
        array = bound.get(key)
        if array is None:
            shape, dtype, strides, offset = self.layout
            array = bound[key] = np.ndarray(
                shape, dtype, buffer=arena, offset=self.slot.offset + offset,
                strides=strides)
        return array


class Tape:
    """One recorded step: calls, input buffers, loss buffer, guards.

    Every array a call reads before the tape writes it (an input, a
    parameter, a gradient buffer, a constant) is held as recorded.
    Every array a call writes in full before anything reads it holds
    nothing between replays; it becomes a slot (see :func:`_arena`).
    """

    def __init__(self, inputs: list):
        self.inputs = inputs
        #: ``(fn, operands)`` per call while recording; pre-bound calls
        #: once :meth:`finish` has placed the slots.
        self.ops: list = []
        self.loss: np.ndarray | None = None
        #: Set when a leaf got its first gradient (see the module doc).
        self.abandoned = False
        #: Every leaf the step read that is a parameter or takes a
        #: gradient → its (data, grad) before it.
        self._leaves: dict[int, tuple] = {}
        self._guards: dict[tuple, tuple] = {}
        self._slots: dict[int, _Slot] = {}
        self._held: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # recording: called by the ops while this tape is active
    # ------------------------------------------------------------------
    def ufunc(self, fn, *args, out):
        """Record ``fn(*args, out)``; returns ``out`` as the buffer.

        A numpy scalar result becomes a 0-d array holding the same
        value, which the caller uses from then on."""
        if not isinstance(out, np.ndarray):
            out = np.asarray(out)
        self._append(fn, args + (out,), out, True)
        return out

    def reduce(self, ufunc, a, axis, out, keepdims: bool = False):
        """Record ``ufunc.reduce(a, axis, None, out, keepdims)``."""
        if not isinstance(out, np.ndarray):
            out = np.asarray(out)
        self._append(ufunc.reduce, (a, axis, None, out, keepdims), out, True)
        return out

    def call(self, fn, args: tuple, whole: bool = True) -> None:
        """Record ``fn(*args)``, which writes into ``args[0]``: all of
        it, without reading it, unless ``whole`` is false."""
        self._append(fn, args, args[0], whole)

    def reshaped(self, result: np.ndarray, source: np.ndarray) -> None:
        """Record the copy a reshape made; a view needs none."""
        if not np.may_share_memory(result, source):
            self.call(np.copyto, (result.reshape(source.shape), source))

    def node(self, op: str, parents) -> None:
        """A graph node was made: check its op replays, and remember
        the arrays of every parameter, or other leaf taking a gradient,
        that it reads."""
        if op not in REPLAYABLE:
            raise NotImplementedError(
                f"op {op!r} has no tape form; a compiled step cannot "
                f"record it")
        leaves = self._leaves
        for parent in parents:
            if (parent._backward is None and id(parent) not in leaves
                    and (parent.requires_grad
                         or isinstance(parent, Parameter))):
                leaves[id(parent)] = (parent, parent.data, parent.grad)

    def guard(self, owner, attr: str) -> None:
        """Replay only while ``owner.attr`` is the object it is now."""
        self._guards.setdefault((id(owner), attr),
                                (owner, attr, getattr(owner, attr)))

    def _append(self, fn, args: tuple, written: np.ndarray,
                whole: bool) -> None:
        index = len(self.ops)
        held, slots = self._held, self._slots
        operands = list(args)
        for at, array in enumerate(args):
            if not isinstance(array, np.ndarray):
                continue
            owner = _owner(array)
            key = id(owner)
            if key in held:
                continue
            slot = slots.get(key)
            # A slot whose array died may share this one's id.
            if slot is None or slot.ref() is not owner:
                if array is not written or not whole or not _first_write(
                        args, written, owner):
                    held[key] = owner
                    continue
                slot = slots[key] = _Slot(owner, index)
            slot.last = index
            operands[at] = slot if array is owner else _View(slot, array,
                                                             owner)
        self.ops.append((fn, operands))

    def finish(self, loss: np.ndarray) -> None:
        """Close the recording of a step whose loss array is ``loss``:
        place the slots and bind the calls."""
        owner = _owner(loss)
        slot = self._slots.get(id(owner))
        if slot is not None and slot.ref() is owner:
            slot.last = len(self.ops)  # read after the replay
            loss = slot if loss is owner else _View(slot, loss, owner)
        used = {}
        for value in chain((loss,), *(operands for _, operands in self.ops)):
            slot = value.slot if type(value) is _View else value
            if type(slot) is _Slot:
                used[id(slot)] = slot
        arena = _arena(list(used.values()))
        for slot in used.values():
            slot.bind(arena)
        views: dict = {}

        def bound(value):
            if type(value) is _Slot:
                return value.array
            if type(value) is _View:
                return value.bind(arena, views)
            return value

        self.ops = [partial(fn, *map(bound, operands))
                    for fn, operands in self.ops]
        self.loss = bound(loss)
        self._leaves = list(self._leaves.values())
        self._guards = list(self._guards.values())
        self._slots = self._held = None

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def valid(self) -> bool:
        """Whether every array and guard still is what was recorded."""
        return (all(leaf.data is data and leaf.grad is grad
                    for leaf, data, grad in self._leaves)
                and all(getattr(owner, attr) is value
                        for owner, attr, value in self._guards))

    def replay(self, inputs) -> float:
        """Run the recorded step on ``inputs``; returns the loss."""
        for buffer, array in zip(self.inputs, inputs):
            if buffer is not None:
                np.copyto(buffer, array)
        for op in self.ops:
            op()
        return float(self.loss)


#: Slot alignment in the arena, in bytes (a cache line).
_ALIGN = 64


def _owner(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _first_write(args: tuple, written: np.ndarray,
                 owner: np.ndarray) -> bool:
    """Whether a call writing all of ``written`` overwrites all of
    ``owner`` without reading it: the whole array, and no other operand
    in the same memory (an in-place call reads what it writes)."""
    if written.size != owner.size:
        return False
    seen = False
    for value in args:
        if value is written:
            if seen:
                return False
            seen = True
        elif isinstance(value, np.ndarray) and _owner(value) is owner:
            return False
    return True


def _span(array: np.ndarray) -> int:
    """Bytes from ``array``'s first element to the end of its last."""
    return array.itemsize + sum((n - 1) * abs(s)
                                for n, s in zip(array.shape, array.strides))


def _offset(array: np.ndarray, owner: np.ndarray) -> int:
    """Where ``array``, a view of ``owner``, starts in it, in bytes.

    A view with non-negative strides spanning as many bytes as its
    owner starts where the owner does: the common case, answered
    without reading either address."""
    if array is owner:
        return 0
    if _span(array) == owner.nbytes and min(array.strides, default=0) >= 0:
        return 0
    return (array.__array_interface__["data"][0]
            - owner.__array_interface__["data"][0])


def _arena(slots) -> np.ndarray:
    """Give every slot an offset and allocate them all at once.

    A slot is busy from the call that first writes it to the last call
    that uses it; walking the calls in order, each slot reuses a slot
    of its size that is no longer busy, else takes new space.  One
    allocation holds them all, so the recorded step's arrays, freed by
    then, leave no long-lived block between them."""
    # At one call, its new slots are placed before its finished ones
    # are freed: a call never writes over an operand.
    events = sorted([(slot.first, 0, slot) for slot in slots]
                    + [(slot.last, 1, slot) for slot in slots],
                    key=lambda event: event[:2])
    free: dict[int, list] = {}  # size → offsets no longer busy
    top = 0
    for _, release, slot in events:
        size = -(-slot.nbytes // _ALIGN) * _ALIGN
        if release:
            free.setdefault(size, []).append(slot.offset)
        elif free.get(size):
            slot.offset = free[size].pop()
        else:
            slot.offset, top = top, top + size
    return np.empty(top, np.uint8)


def _layout(array):
    return None if array is None else (array.shape, array.strides,
                                       array.dtype.str)


def _input_buffer(array):
    """A copy of ``array`` with its exact strides (even on axes of
    extent 1, which numpy's GEMM dispatch reads): a fresh block viewed
    the same way, so ``array`` must span exactly its own bytes."""
    if array is None:
        return None
    if _span(array) != array.nbytes or min(array.strides, default=0) < 0:
        raise ValueError(f"compiled step inputs must be dense; got strides "
                         f"{array.strides} for shape {array.shape}")
    buffer = np.ndarray(array.shape, array.dtype,
                        buffer=np.empty(array.nbytes, np.uint8),
                        strides=array.strides)
    np.copyto(buffer, array)
    return buffer


class CompiledStep:
    """``loss_fn``'s forward and backward, replayed from a tape.

    ``step(*inputs)`` accumulates the gradients of ``loss_fn(*inputs)``
    (a scalar :class:`~repro.nn.tensor.Tensor`) into the parameters and
    returns the loss, as ``loss.backward(); loss.item()`` would.  Inputs
    are dense arrays (or ``None``); each layout of them gets its own
    tape, recorded through autograd the first time it is seen and again
    whenever the tape's guards fail.  Drop the step to release its
    tapes.
    """

    def __init__(self, loss_fn):
        self.loss_fn = loss_fn
        self._tapes: dict[tuple, Tape] = {}

    def __call__(self, *inputs) -> float:
        key = tuple(map(_layout, inputs))
        tape = self._tapes.pop(key, None)
        if tape is not None and tape.valid():
            self._tapes[key] = tape
            return tape.replay(inputs)
        tape, loss = self.record(inputs)
        if tape is not None:
            self._tapes[key] = tape
        return loss

    def record(self, inputs) -> tuple[Tape | None, float]:
        """Run one step through autograd, recording it; returns the
        tape (None if the recording was abandoned) and the loss."""
        tape = Tape([_input_buffer(array) for array in inputs])
        # Recording makes thousands of small objects and frees them all;
        # a cyclic collection in the middle would find nothing to free.
        collecting = gc.isenabled()
        gc.disable()
        try:
            with record_into(tape):
                loss = self.loss_fn(*tape.inputs)
                loss.backward()
            value, loss = loss.item(), loss.data  # frees the graph
            if tape.abandoned:
                return None, value
            tape.finish(loss)
        finally:
            if collecting:
                gc.enable()
        return tape, value
