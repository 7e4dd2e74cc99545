"""Shared persistence idioms: atomic writes + content digests.

Three subsystems grew the same two idioms independently — the student
artifact bundles (:mod:`repro.serve.artifact`), the embedding store
(:mod:`repro.core.store`) and the durable streaming layer
(:mod:`repro.durable`):

* **atomic publication** — stage the bytes in a temp file in the
  target's directory, then ``os.replace`` into place, so a reader (or a
  crash) can only ever observe the whole file or no file;
* **content digests** — sha256 over sorted ``name + raw bytes`` of a
  named-array mapping, so corruption and tampering are detected at load
  time instead of surfacing as silently wrong numbers.

This module is the single home for both.  It deliberately depends on
nothing inside :mod:`repro` (stdlib + numpy only) so every layer — nn
serialization, artifact bundles, embedding caches, snapshots, sidecar
JSON — can use it without import cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

__all__ = [
    "arrays_digest",
    "atomic_replace",
    "atomic_save_array",
    "atomic_save_arrays",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
]


# ----------------------------------------------------------------------
# atomic publication
# ----------------------------------------------------------------------
class atomic_replace:
    """Context manager: stage writes to a temp file, publish on success.

    Yields a binary file handle; on clean exit the temp file is moved
    onto ``path`` with ``os.replace`` (atomic on POSIX), on error it is
    removed and the target left untouched.  ``fsync=True`` flushes the
    staged bytes to stable storage before the rename, surviving machine
    (not just process) crashes.
    """

    def __init__(self, path: str, *, suffix: str = ".tmp",
                 fsync: bool = False):
        self.path = path
        self.suffix = suffix
        self.fsync = fsync
        self._tmp: str | None = None
        self._handle = None

    def __enter__(self):
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # Named after the target, so whoever owns the target's name
        # can find what a crash mid-write left.
        fd, self._tmp = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".",
            suffix=self.suffix)
        self._handle = os.fdopen(fd, "wb")
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                if self.fsync:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                self._handle.close()
                os.replace(self._tmp, self.path)
                return False
            self._handle.close()
        finally:
            if exc_type is not None and self._tmp is not None \
                    and os.path.exists(self._tmp):
                os.unlink(self._tmp)
        return False


def atomic_write_bytes(path: str, payload: bytes,
                       fsync: bool = False) -> None:
    """Write ``payload`` to ``path`` so readers see all of it or none."""
    with atomic_replace(path, fsync=fsync) as handle:
        handle.write(payload)


def atomic_write_json(path: str, payload, *, fsync: bool = False,
                      indent: int = 2) -> None:
    """Atomically write ``payload`` as pretty-printed JSON."""
    text = json.dumps(payload, indent=indent) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_text(path: str, text: str, *, fsync: bool = False,
                      encoding: str = "utf-8") -> None:
    """Atomically write ``text`` (CSV reports, rendered tables, logs)."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_save_array(path: str, array: np.ndarray) -> str:
    """Atomically write one array to ``path`` (npy).

    Like ``np.save``, a missing ``.npy`` extension is appended.
    Returns the written path.
    """
    if not path.endswith(".npy"):
        path = path + ".npy"
    with atomic_replace(path, suffix=".npy.tmp") as handle:
        np.save(handle, array)
    return path


def atomic_save_arrays(path: str, arrays: dict[str, np.ndarray]) -> str:
    """Atomically write a named-array mapping to ``path`` (npz).

    Like ``np.savez``, a missing ``.npz`` extension is appended —
    keeping save and load paths symmetric.  Returns the written path.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    with atomic_replace(path, suffix=".npz.tmp") as handle:
        np.savez(handle, **arrays)
    return path


# ----------------------------------------------------------------------
# content digests
# ----------------------------------------------------------------------
def arrays_digest(arrays: dict, *, skip: tuple = ()) -> str:
    """sha256 hex digest of a named-array mapping.

    Entries are folded in sorted-name order as ``name bytes + raw array
    bytes`` so the digest is independent of dict ordering and memory
    layout; names in ``skip`` (e.g. the digest entry itself) are
    excluded.  This is the one digest convention shared by artifact
    bundles, stream snapshots and weight fingerprints.  Each array's
    buffer is hashed in place: no ``tobytes()`` copy, same digest.
    """
    digest = hashlib.sha256()
    skipped = set(skip)
    for name in sorted(arrays):
        if name in skipped:
            continue
        digest.update(str(name).encode("utf-8"))
        digest.update(np.ascontiguousarray(arrays[name]))
    return digest.hexdigest()
