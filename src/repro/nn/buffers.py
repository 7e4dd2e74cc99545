"""Buffer-donation helpers and preallocated scratch pools.

Compiled inference engines (:mod:`repro.infer`) run outside the autograd
substrate: they want the *raw* weight arrays of a fitted module and a set
of reusable scratch buffers sized for the current batch shape, so a
forward pass allocates nothing beyond its output.

Two pieces live here because they are engine-agnostic:

* :func:`donate` — hand a parameter's backing array to an engine.  The
  array is returned as-is (zero copy) whenever it already satisfies the
  engine contract (C-contiguous, requested dtype); otherwise a compliant
  copy is made once, at compile time.  Donated weights *share memory*
  with the module by default, so an engine compiled from a live module
  tracks in-place weight updates for free.
* :class:`ScratchPool` — named, shape-keyed ``np.empty`` buffers.
  ``take(name, shape)`` returns the same allocation for the same
  ``(name, shape)`` every call, which is exactly the per-batch-shape
  preallocation pattern a steady-state serving loop needs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["donate", "ScratchPool"]


def donate(array, dtype=np.float32, copy: bool = False) -> np.ndarray:
    """Return ``array`` as a C-contiguous ndarray of ``dtype``.

    Zero-copy when the input already complies (the buffer is *donated*
    to the caller — mutations remain visible to the donor); otherwise a
    single compliant copy is made.  ``copy=True`` forces a snapshot,
    decoupling the caller from later in-place weight updates.
    """
    out = np.ascontiguousarray(array, dtype=dtype)
    if copy and out is array:
        out = out.copy()
    return out


class ScratchPool:
    """Reusable named scratch buffers keyed by ``(name, shape, dtype)``.

    ``take`` returns an *uninitialized* buffer (``np.empty`` semantics):
    callers must fully overwrite it.  Buffers persist across calls, so a
    hot loop that always asks for the same shapes allocates only on its
    first iteration.  One pool instance is single-threaded by contract —
    share pools only under an external lock.
    """

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...],
             dtype=np.float32) -> np.ndarray:
        key = (name, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def clear(self) -> None:
        """Drop every held buffer (frees steady-state scratch memory)."""
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all buffers."""
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)
