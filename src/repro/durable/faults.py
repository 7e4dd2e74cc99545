"""Deterministic fault injection for the durability layer.

Two families of faults, both seed-driven and reproducible:

* **Crash points** — named markers compiled into the durable write/
  recover paths (``wal.append``, ``wal.fsync``, ``snapshot.publish``,
  ``recover.import``, ``recover.replay``).  :func:`inject` arms one so
  its N-th hit raises :class:`InjectedCrash`, simulating a process that
  died at exactly that instruction.  Unarmed crash points are a single
  dict lookup — zero cost in production.

* **File corrupters** — byte-level damage to files already on disk:
  :func:`truncate_file` (partial write / lost tail), :func:`flip_byte`
  (bit rot at a seeded offset), :func:`flip_digest_byte` (targeted
  tamper of a snapshot's recorded digest), :func:`torn_tail` (a WAL
  record cut mid-frame, as lost pages leave it), and
  :func:`uncommitted_frame` (a WAL record whose append a crash
  interrupted before its marker).

Tests use these to prove every recovery stage *fails closed*: a damaged
artifact must land the :class:`~repro.durable.shard.ShardedRecoverer`
in ``FAILED`` with a specific ``failure_reason`` — never a partial
import.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = [
    "InjectedCrash",
    "arm",
    "crashpoint",
    "disarm",
    "disarm_all",
    "flip_byte",
    "flip_digest_byte",
    "inject",
    "torn_tail",
    "truncate_file",
    "uncommitted_frame",
]


class InjectedCrash(RuntimeError):
    """Raised by an armed crash point — stands in for a dead process."""


#: name -> {"at": fire on this hit (1-based), "hits": seen so far}
_ARMED: dict[str, dict] = {}


def crashpoint(name: str) -> None:
    """Marker in a durable code path; raises when armed via :func:`arm`."""
    if not _ARMED:
        return
    entry = _ARMED.get(name)
    if entry is None:
        return
    entry["hits"] += 1
    if entry["hits"] == entry["at"]:
        raise InjectedCrash(f"injected crash at {name!r} "
                            f"(hit {entry['hits']})")


def arm(name: str, at: int = 1) -> None:
    """Arm ``name`` so its ``at``-th hit raises :class:`InjectedCrash`."""
    if at < 1:
        raise ValueError("at must be >= 1 (1 = first hit)")
    _ARMED[name] = {"at": int(at), "hits": 0}


def disarm(name: str) -> None:
    _ARMED.pop(name, None)


def disarm_all() -> None:
    _ARMED.clear()


@contextlib.contextmanager
def inject(name: str, at: int = 1):
    """Context manager: arm ``name`` for the body, disarm on exit."""
    arm(name, at=at)
    try:
        yield
    finally:
        disarm(name)


# ----------------------------------------------------------------------
# file corrupters
# ----------------------------------------------------------------------
def truncate_file(path: str, *, keep_bytes: int | None = None,
                  keep_fraction: float | None = None,
                  seed: int = 0) -> int:
    """Cut the tail off ``path`` (a crash mid-write / lost pages).

    Keeps ``keep_bytes``, or ``keep_fraction`` of the file, or — with
    neither given — a seeded random prefix in ``[1, size - 1]``.
    Returns the new size.
    """
    size = os.path.getsize(path)
    if size < 2:
        raise ValueError(f"{path!r} is too small to truncate meaningfully")
    if keep_bytes is None:
        if keep_fraction is not None:
            keep_bytes = max(1, min(size - 1, int(size * keep_fraction)))
        else:
            keep_bytes = int(np.random.default_rng(seed).integers(1, size))
    keep_bytes = int(keep_bytes)
    if not 0 <= keep_bytes < size:
        raise ValueError(f"keep_bytes {keep_bytes} outside [0, {size})")
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
    return keep_bytes


def flip_byte(path: str, *, offset: int | None = None, seed: int = 0) -> int:
    """XOR one byte of ``path`` at a seeded offset (bit rot).

    Returns the corrupted offset.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"{path!r} is empty")
    if offset is None:
        offset = int(np.random.default_rng(seed).integers(0, size))
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} outside [0, {size})")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xA5]))
    return offset


def flip_digest_byte(path: str) -> str:
    """Rewrite a snapshot with one hex char of its recorded digest flipped.

    Targeted tamper: the archive stays structurally valid, every payload
    array is intact, only the integrity record lies — exactly the case
    the verifying stage's digest check exists for.  Returns the
    tampered digest string.
    """
    from ..nn.serialization import load_arrays, save_arrays

    arrays = load_arrays(path)
    if "__digest__" not in arrays:
        raise ValueError(f"{path!r} carries no __digest__ entry")
    digest = str(arrays["__digest__"])
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    arrays["__digest__"] = np.array(flipped)
    save_arrays(path, arrays)
    return flipped


def torn_tail(path: str, *, drop_bytes: int | None = None,
              seed: int = 0) -> int:
    """Tear the last committed record of WAL segment ``path`` (pages
    lost mid-record, as an un-fsynced machine crash leaves them).

    Cuts ``drop_bytes`` — or a seeded 1..16 — off the end of the last
    committed record, along with any zero tail an open segment has
    after it.  Returns how many record bytes were dropped.
    """
    from .wal import scan_wal

    end = scan_wal(path)[2]
    if drop_bytes is None:
        drop_bytes = int(np.random.default_rng(seed).integers(
            1, min(16, max(2, end // 2))))
    drop_bytes = int(drop_bytes)
    if not 1 <= drop_bytes < end:
        raise ValueError(f"drop_bytes {drop_bytes} outside [1, {end})")
    with open(path, "r+b") as handle:
        handle.truncate(end - drop_bytes)
    return drop_bytes


#: What of its frame an interrupted append had copied, besides the head.
_WRITTEN = ("head", "part", "body")


def uncommitted_frame(path: str, *, written: str = "body",
                      seed: int = 0) -> int:
    """Leave WAL segment ``path`` as a crash inside the append of its
    last committed record would have: that record's marker unwritten.

    ``written`` is how far the copy got: ``"body"`` (the whole frame
    but the marker), ``"part"`` (the head and a seeded prefix of the
    body) or ``"head"`` (the head alone); the rest of the frame is
    zeros, as preallocation left it.  Bytes after the record stay as
    they are.  Returns the frame's offset.
    """
    from .wal import _FRAME, _FRAME_SIZE, _RECORD_MAGIC, WAL_MAGIC, scan_wal

    if written not in _WRITTEN:
        raise ValueError(f"written must be one of {_WRITTEN}, "
                         f"got {written!r}")
    end = scan_wal(path)[2]
    with open(path, "r+b") as handle:
        blob = handle.read(end)
        # Records start after the magic line and the JSON header line.
        start = blob.index(b"\n", len(WAL_MAGIC)) + 1
        while True:
            if start >= end:
                raise ValueError(f"{path!r} holds no committed record")
            length, _ = _FRAME.unpack_from(blob, start + len(_RECORD_MAGIC))
            if start + _FRAME_SIZE + length == end:
                break
            start += _FRAME_SIZE + length
        cut = {"head": 0, "body": length,
               "part": int(np.random.default_rng(seed).integers(
                   1, length))}[written]
        handle.seek(start)
        handle.write(bytes(len(_RECORD_MAGIC)))
        handle.seek(start + _FRAME_SIZE + cut)
        handle.write(bytes(length - cut))
    return start
