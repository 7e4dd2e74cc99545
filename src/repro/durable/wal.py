"""Append-only tick write-ahead log for the streaming layer.

The snapshotter checkpoints the full :class:`StreamingForecaster`
universe every N ticks; the WAL covers the gap between the last
checkpoint and the crash.  It is *write-ahead*:
:meth:`StreamingForecaster.append` validates a tick, logs it, and only
then applies and sequences it.  A tick whose record cannot be written
is refused with nothing applied, so the log never falls behind the
rings, and replaying it re-runs exactly the ticks the dead process had
accepted — never a phantom tick, never a gap.

File layout, format 2 (``wal-{shard}-{base_seq:012d}.log``)::

    REPRO-TICK-WAL\\n                      magic line
    {"format": 2, "base_seq": ..., ...}\\n  JSON header (config + digest)
    <magic 4B> <len u32 LE> <crc32 u32 LE> <body>   repeated
    <zeros>                                 an open segment's unused tail

Each record is one accepted tick, framed by a 4-byte ``TICK`` magic,
the body length and the CRC32 of the body.  The body is binary: a
fixed-width head — seq (u64), timestamp (f64), ndim (u8), rows (u32),
cols (u32), key length (u32) — then the key's
:func:`~repro.durable.keys.encode_key` JSON and the ``rows * cols`` raw
little-endian float64 values.  The appender caches each key's JSON, so
a series' key is encoded once per segment, not once per tick.

**Appends are memory copies.**  The appender grows the segment by
writing zero-filled 1 MiB blocks past its end (``os.pwrite``), from
the moment it opens it, and maps a window of the file from the page of
its last record to its end
(``MAP_SHARED``), never the whole file: touched mapped pages count
toward the process's RSS, and a segment that is never rotated grows
without bound.  ``append`` copies a record into the mapping in commit
order — the frame head (length and CRC), then the body, then the
``TICK`` marker — and runs no syscall, so it never hands the GIL to
another thread.  A record is **committed** once its marker is in the
mapping: it is then in the page cache, which a ``kill -9`` cannot
take away.  Writing the blocks allocates them, so a full disk fails
the extension with ``ENOSPC`` — an ``OSError`` from ``append``, and
the tick is refused — instead of raising SIGBUS inside a later copy;
the file is never grown with ``ftruncate``, which leaves a hole.

**Reading a crashed segment.**  A zero marker where a record would
start ends the records.  The segment reads clean when every later byte
is zero or belongs to the one uncommitted frame that its head
describes, which is all that a crash at any instruction of ``append``
can leave (its marker may be partly written).  Any other byte after it
is a torn tail, exactly as a short frame is.  Reopening a segment
truncates it to its committed end and continues there, and ``close``
unmaps and truncates it the same way, so a cleanly closed segment has
no zero tail and holds the same bytes a ``write()`` per record would
have left.

This build reads only the format it writes: a segment of any other
format is refused with a :class:`WALError` before a record is read,
and left as it is.

``read_wal`` is strict: a record whose frame is incomplete or whose
CRC32 disagrees raises :class:`TornWALError` carrying the offset of the
last good byte — the recoverer decides whether a torn tail is fatal
(``strict_wal``) or trimmed.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib

import numpy as np

from ..persist import atomic_write_bytes
from .faults import crashpoint
from .keys import decode_key, encode_key

__all__ = [
    "TickWAL",
    "TornWALError",
    "WALError",
    "chain_files",
    "chain_labels",
    "chain_path",
    "read_wal",
    "scan_wal",
    "wal_paths",
]

WAL_FORMAT_VERSION = 2
#: The last build that reads the retired layouts: format-1 snapshots and
#: WAL segments, and chain files whose names carry no shard label.
RETIRED_LAYOUT_READER = "commit 7fb55d7"
WAL_MAGIC = b"REPRO-TICK-WAL\n"
_RECORD_MAGIC = b"TICK"
_FRAME = struct.Struct("<II")  # body length, crc32 of body
_FRAME_SIZE = len(_RECORD_MAGIC) + _FRAME.size
#: Format-2 tick body head: seq, timestamp, ndim, rows, cols, key length.
_TICK = struct.Struct("<QdBIII")
#: Zero-filled bytes a segment grows by at a time (more when one record
#: needs it); the mapped window spans at most this plus a page and a
#: record.
_GROWTH = 1 << 20
_PAGE = mmap.ALLOCATIONGRANULARITY


class WALError(RuntimeError):
    """The WAL file is malformed beyond a torn tail."""


class TornWALError(WALError):
    """The WAL ends mid-record — an un-fsynced crash's signature.

    ``good_offset`` is the end of the last intact record; everything
    before it parsed cleanly and is carried in ``records``.
    """

    def __init__(self, message: str, *, good_offset: int, records: list):
        super().__init__(message)
        self.good_offset = good_offset
        self.records = records


class TickWAL:
    """Appender for one WAL segment starting at ``base_seq``.

    Opening an existing path appends to it (resume after restart);
    opening a fresh path writes the magic + header first.  ``config``
    and ``artifact_digest`` ride in the header so a WAL chain alone —
    no snapshot yet — is enough to verify compatibility and bootstrap
    recovery from an empty forecaster.
    """

    def __init__(self, path: str, base_seq: int, *, config=None,
                 artifact_digest=None, fsync: bool = False):
        self.path = path
        self.base_seq = int(base_seq)
        self.fsync = bool(fsync)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        #: Key → its encode_key JSON, encoded on the key's first tick.
        self._tokens: dict = {}
        if os.path.exists(path) and os.path.getsize(path) > 0:
            # Repair-on-open: appending after a torn record would bury
            # every new record behind unparseable bytes — silent loss of
            # durable ticks at the next recovery.  Trim the torn tail
            # first; refuse files that are damaged beyond that.
            try:
                header, _, end = scan_wal(path)
            except TornWALError as torn:
                with open(path, "r+b") as repair:
                    repair.truncate(torn.good_offset)
                header, _, end = scan_wal(path)
            if int(header.get("base_seq", -1)) != self.base_seq:
                raise WALError(
                    f"{path!r} has base_seq {header.get('base_seq')!r}, "
                    f"expected {self.base_seq}")
        else:
            header = {
                "format": WAL_FORMAT_VERSION,
                "base_seq": self.base_seq,
                "config": dict(config) if config else {},
                "artifact_digest": artifact_digest,
            }
            blob = WAL_MAGIC + json.dumps(
                header, sort_keys=True).encode("utf-8") + b"\n"
            atomic_write_bytes(path, blob, fsync=self.fsync)
            end = len(blob)
        self._file = open(path, "r+b", buffering=0)
        # A crashed segment continues at its committed end: the zero
        # tail and any uncommitted frame go.
        self._file.truncate(end)
        #: End of the last committed record.  A clean close truncates
        #: the segment to it; each append grows it by one record's size.
        self.durable_size = end
        #: File length: the committed records plus the zero-filled tail.
        self._size = end
        #: The mapped window and the file offset of its first byte.
        self._mapping: mmap.mmap | None = None
        self._window = 0
        # Preallocate now: an open segment always ends in zeros.
        try:
            self._remap(end)
        except BaseException:
            self._file.close()
            raise

    def append(self, seq: int, key, timestamp: float, values) -> None:
        """Log one accepted tick (``(N,)``) or tick run (``(T, N)``).

        The record is copied into the mapped segment, marker last; it
        is committed, and in the page cache, when this returns, so the
        tick survives a crash of this process (``kill -9``).  It
        survives power loss or a kernel crash only with ``fsync=True``,
        which also syncs the record's pages (``msync``) before
        returning.  Raises ``OSError`` (``ENOSPC`` on a full disk) when
        the segment cannot grow; nothing is logged then.
        """
        if self._file is None:
            raise WALError(f"WAL {self.path!r} is closed")
        row = np.ascontiguousarray(values, dtype=np.float64)
        if row.ndim == 1:
            rows, cols = 1, row.shape[0]
        elif row.ndim == 2:
            rows, cols = row.shape
        else:
            raise ValueError(
                f"a tick must be (N,) or (T, N), got shape {row.shape}")
        token = self._tokens.get(key)
        if token is None:
            token = json.dumps(encode_key(key),
                               separators=(",", ":")).encode("utf-8")
            self._tokens[key] = token
        body = _TICK.pack(int(seq), float(timestamp), row.ndim, rows, cols,
                          len(token)) + token + row.tobytes()
        end = self.durable_size + _FRAME_SIZE + len(body)
        mapping = self._mapping
        if end - self._window > len(mapping):
            mapping = self._remap(end)
        crashpoint("wal.append")
        start = self.durable_size - self._window
        stop = end - self._window
        # Three copies in commit order.  The head goes first and alone:
        # a partly copied head can only understate the length, so a
        # crash leaves nothing past the frame the head describes.
        _FRAME.pack_into(mapping, start + len(_RECORD_MAGIC), len(body),
                         zlib.crc32(body))
        mapping[start + _FRAME_SIZE:stop] = body
        mapping[start:start + len(_RECORD_MAGIC)] = _RECORD_MAGIC
        crashpoint("wal.fsync")
        if self.fsync:
            page = start - start % mmap.PAGESIZE
            try:
                mapping.flush(page, stop - page)
            except BaseException:
                # Not durable, so not logged: marker first, as a crash
                # mid-way must leave an uncommitted frame, not a record.
                mapping[start:start + len(_RECORD_MAGIC)] = bytes(
                    len(_RECORD_MAGIC))
                mapping[start:stop] = bytes(stop - start)
                raise
        self.durable_size = end

    def _remap(self, end: int) -> mmap.mmap:
        """Grow the file past ``end`` and map the window from the
        committed end's page to the file's end."""
        fd = self._file.fileno()
        if end >= self._size:
            size = max(end, self._size + _GROWTH)
            size += -size % _PAGE
            offset = self._size
            while offset < size:
                offset += os.pwrite(fd, bytes(min(_GROWTH, size - offset)),
                                    offset)
            if self.fsync:
                os.fsync(fd)
            self._size = size
        window = self.durable_size - self.durable_size % _PAGE
        mapping = mmap.mmap(fd, self._size - window,
                            access=mmap.ACCESS_WRITE, offset=window)
        if self._mapping is not None:
            self._mapping.close()
        self._mapping, self._window = mapping, window
        return mapping

    def close(self) -> None:
        """Unmap and truncate to the committed end (fsync'd with
        ``fsync=True``): no zero tail is left behind."""
        if self._file is None:
            return
        if self._mapping is not None:
            self._mapping.close()
            self._mapping = None
        self._file.truncate(self.durable_size)
        if self.fsync:
            os.fsync(self._file.fileno())
        self._file.close()
        self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_wal(path: str):
    """Parse a format-2 WAL segment → ``(header, records)``.

    Each record is ``{"seq", "key", "timestamp", "values"}`` with
    ``values`` a float64 array and ``key`` the decoded Python key.
    Raises :class:`WALError` for structural damage and
    :class:`TornWALError` (carrying the clean prefix) for a torn tail.
    """
    header, records, _ = scan_wal(path)
    return header, records


def scan_wal(path: str):
    """:func:`read_wal` plus the committed end → ``(header, records,
    end)``.

    ``end`` is the offset just past the last committed record: the
    size a clean close leaves, and where a reopened segment continues.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(WAL_MAGIC):
        raise WALError(f"{path!r} is not a tick WAL (bad magic)")
    newline = blob.find(b"\n", len(WAL_MAGIC))
    if newline < 0:
        raise WALError(f"{path!r} has no header line")
    try:
        header = json.loads(blob[len(WAL_MAGIC):newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WALError(f"{path!r} has a corrupt header: {exc}") from exc
    if header.get("format") != WAL_FORMAT_VERSION:
        raise WALError(
            f"WAL format {header.get('format')!r} of {path!r} is not "
            f"supported (this build reads format {WAL_FORMAT_VERSION}; "
            f"format 1 was last read by {RETIRED_LAYOUT_READER})")

    records: list = []
    keys: dict = {}  # encoded key → decoded key, decoded once
    offset = newline + 1
    while offset < len(blob):
        good = offset
        magic = blob[offset:offset + len(_RECORD_MAGIC)]
        if magic != _RECORD_MAGIC:
            if _uncommitted_tail(blob, offset):
                break  # what an interrupted append leaves: not a record
            if len(magic) == len(_RECORD_MAGIC) and not _unwritten(magic):
                raise WALError(
                    f"{path!r} has a corrupt record marker at byte {good}")
            raise TornWALError(
                f"{path!r} has an unfinished record at byte {good} with "
                f"data after it", good_offset=good, records=records)
        if len(blob) - offset < _FRAME_SIZE:
            raise TornWALError(
                f"{path!r} ends mid-frame at byte {good}",
                good_offset=good, records=records)
        length, crc = _FRAME.unpack_from(blob, offset + len(magic))
        offset += _FRAME_SIZE
        body = blob[offset:offset + length]
        if len(body) < length:
            raise TornWALError(
                f"{path!r} ends mid-record at byte {good}",
                good_offset=good, records=records)
        if zlib.crc32(body) != crc:
            raise TornWALError(
                f"{path!r} has a checksum mismatch at byte {good} "
                f"(torn or corrupt record)",
                good_offset=good, records=records)
        offset += length
        try:
            records.append(_decode(body, keys))
        except Exception as exc:
            raise WALError(
                f"{path!r} has an undecodable record at byte {good}: "
                f"{exc}") from exc
    return header, records, offset


def _unwritten(marker: bytes) -> bool:
    """A record marker not (fully) written yet: each byte is zero or
    the ``TICK`` byte a finished copy puts there."""
    return all(byte in (0, want) for byte, want in zip(marker, _RECORD_MAGIC))


def _uncommitted_tail(blob: bytes, offset: int) -> bool:
    """Whether ``blob[offset:]`` is what an append interrupted at any
    instruction leaves: zeros, or one frame whose marker is unwritten
    followed by zeros.  The frame's own head bounds it — a partly
    written head only understates the length."""
    tail = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    if not tail.any():
        return True
    if len(tail) < _FRAME_SIZE or not _unwritten(
            blob[offset:offset + len(_RECORD_MAGIC)]):
        return False
    length, _ = _FRAME.unpack_from(blob, offset + len(_RECORD_MAGIC))
    stop = _FRAME_SIZE + length
    return stop <= len(tail) and not tail[stop:].any()


def _decode(body: bytes, keys: dict) -> dict:
    """A tick: the fixed-width head, the key, the raw values."""
    seq, timestamp, ndim, rows, cols, key_length = _TICK.unpack_from(body)
    start = _TICK.size + key_length
    token = body[_TICK.size:start]
    key = keys.get(token)
    if key is None:
        key = keys[token] = decode_key(json.loads(token.decode("utf-8")))
    if ndim == 1 and rows == 1:
        shape = (cols,)
    elif ndim == 2:
        shape = (rows, cols)
    else:
        raise ValueError(f"bad tick shape: ndim {ndim}, rows {rows}")
    payload = body[start:]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ValueError(
            f"{len(payload)} payload bytes, expected {expected}")
    values = np.frombuffer(payload, dtype=np.float64).reshape(shape)
    return {"seq": seq, "key": key, "timestamp": timestamp,
            "values": values.copy()}


# ----------------------------------------------------------------------
# directory layout: one naming scheme for every durable file
# ----------------------------------------------------------------------
#: Durable file kinds → (name prefix, extension).
_KINDS = {"snapshot": ("snapshot-", ".npz"), "wal": ("wal-", ".log")}


def chain_path(directory: str, kind: str, shard: int, seq: int) -> str:
    """Where shard ``shard``'s ``kind`` file for ``seq`` lives.

    Every file written is ``snapshot-{shard}-{seq:012d}.npz`` or
    ``wal-{shard}-{seq:012d}.log``, so N workers can share a directory
    without clobbering each other.
    """
    prefix, extension = _KINDS[kind]
    return os.path.join(directory,
                        f"{prefix}{int(shard)}-{int(seq):012d}{extension}")


def _parse_stem(stem: str):
    """``"3-000000000012"`` → ``(3, 12)``; ``"000000000012"`` (an
    unlabeled name: never written, refused by recovery) →
    ``(None, 12)``; anything else → ``None`` (not a durable file)."""
    if stem.isdigit():
        return None, int(stem)
    shard_part, sep, seq_part = stem.partition("-")
    if sep and shard_part.isdigit() and seq_part.isdigit():
        return int(shard_part), int(seq_part)
    return None


def chain_files(directory: str) -> list:
    """Every durable file in ``directory`` → ``[(kind, shard, seq, path)]``.

    ``shard`` is ``None`` for an unlabeled name: listed, so a used
    directory is still seen as used, but never read (the recoverer
    refuses it).
    """
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        for kind, (prefix, extension) in _KINDS.items():
            if name.startswith(prefix) and name.endswith(extension):
                parsed = _parse_stem(name[len(prefix):-len(extension)])
                if parsed is not None:
                    found.append((kind, parsed[0], parsed[1],
                                  os.path.join(directory, name)))
    return found


def chain_labels(directory: str) -> list:
    """Distinct shard labels with snapshots or WAL segments, unlabeled
    (``None``) first."""
    labels = {shard for _, shard, _, _ in chain_files(directory)}
    return ([None] if None in labels else []) + sorted(labels - {None})


def wal_paths(directory: str, start_seq: int = 0, shard: int = 0):
    """Sorted ``[(base_seq, path)]`` of one shard's WAL segments with
    base >= ``start_seq``."""
    return sorted((seq, path)
                  for kind, label, seq, path in chain_files(directory)
                  if kind == "wal" and label == shard and seq >= start_seq)
