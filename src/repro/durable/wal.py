"""Append-only tick write-ahead log for the streaming layer.

The snapshotter checkpoints the full :class:`StreamingForecaster`
universe every N ticks; the WAL covers the gap between the last
checkpoint and the crash.  It is *write-behind*: a tick is logged only
after :meth:`StreamingForecaster.append` accepted it, so replaying the
log re-runs exactly the ticks the dead process had already ingested —
at-most-once, never a phantom tick.

File layout, format 2 (``wal-{shard}-{base_seq:012d}.log``)::

    REPRO-TICK-WAL\\n                      magic line
    {"format": 2, "base_seq": ..., ...}\\n  JSON header (config + digest)
    <magic 4B> <len u32 LE> <crc32 u32 LE> <body>   repeated

Each record is one accepted tick, framed by a 4-byte ``TICK`` magic,
the body length and the CRC32 of the body.  The body is binary: a
fixed-width head — seq (u64), timestamp (f64), ndim (u8), rows (u32),
cols (u32), key length (u32) — then the key's
:func:`~repro.durable.keys.encode_key` JSON and the ``rows * cols`` raw
little-endian float64 values.  The appender caches each key's JSON, so
a series' key is encoded once per segment, not once per tick.
Each append is one ``write`` and one flush before ``append`` returns;
``durable_size`` adds up the bytes known to have reached the OS, which
the fault harness uses to simulate a kill between the buffered write
and the flush.

Format 1 — a ``TICK`` record whose body was a JSON line ``{"seq",
"key", "timestamp", "shape"}`` followed by the raw values — is still
read, never written.  Reopening a format-1 segment that holds only its
header (a ``--resume`` right after a checkpoint written by an older
build) rewrites it as format 2; one that holds records is refused.

``read_wal`` is strict: a record whose frame is incomplete or whose
CRC32 disagrees raises :class:`TornWALError` carrying the offset of the
last good byte — the recoverer decides whether a torn tail is fatal
(``strict_wal``) or trimmed (it is exactly what a crash mid-append
leaves behind).
"""

from __future__ import annotations

import json
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
    "wal_paths",
]

WAL_FORMAT_VERSION = 2
#: Every format this build reads.
_READABLE_FORMATS = (1, 2)
WAL_MAGIC = b"REPRO-TICK-WAL\n"
_RECORD_MAGIC = b"TICK"
_FRAME = struct.Struct("<II")  # body length, crc32 of body
_FRAME_SIZE = len(_RECORD_MAGIC) + _FRAME.size
#: Format-2 tick body head: seq, timestamp, ndim, rows, cols, key length.
_TICK = struct.Struct("<QdBIII")


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


def _frame(magic: bytes, body: bytes) -> bytes:
    return magic + _FRAME.pack(len(body), zlib.crc32(body)) + body


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
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            # Repair-on-open: appending after a torn record would bury
            # every new record behind unparseable bytes — silent loss of
            # durable ticks at the next recovery.  Trim the torn tail
            # first; refuse files that are damaged beyond that.
            try:
                header, records = read_wal(path)
            except TornWALError as torn:
                with open(path, "r+b") as repair:
                    repair.truncate(torn.good_offset)
                header, records = read_wal(path)
            if int(header.get("base_seq", -1)) != self.base_seq:
                raise WALError(
                    f"{path!r} has base_seq {header.get('base_seq')!r}, "
                    f"expected {self.base_seq}")
            if header["format"] != WAL_FORMAT_VERSION:
                if records:
                    raise WALError(
                        f"{path!r} holds format-{header['format']} "
                        f"records; this build appends only format "
                        f"{WAL_FORMAT_VERSION}")
                fresh = True  # header only: rewritten below
        if fresh:
            header = {
                "format": WAL_FORMAT_VERSION,
                "base_seq": self.base_seq,
                "config": dict(config) if config else {},
                "artifact_digest": artifact_digest,
            }
            atomic_write_bytes(path, WAL_MAGIC + json.dumps(
                header, sort_keys=True).encode("utf-8") + b"\n",
                fsync=self.fsync)
        self._handle = open(path, "ab")
        self.durable_size = os.path.getsize(path)

    def _flush(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def append(self, seq: int, key, timestamp: float, values) -> None:
        """Log one accepted tick (``(N,)``) or tick run (``(T, N)``).

        Two durability levels.  With the default ``fsync=False`` the
        record is flushed to the OS page cache before this returns, so
        the tick survives a crash of this process (``kill -9``).  It
        survives power loss or a kernel crash only with ``fsync=True``,
        which also forces the record to disk before returning.
        """
        if self._handle.closed:
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
        record = _frame(_RECORD_MAGIC, _TICK.pack(
            int(seq), float(timestamp), row.ndim, rows, cols, len(token))
            + token + row.tobytes())
        crashpoint("wal.append")
        self._handle.write(record)
        crashpoint("wal.fsync")
        self._flush()
        self.durable_size += len(record)

    def close(self) -> None:
        if not self._handle.closed:
            self._flush()
            self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_wal(path: str):
    """Parse a WAL segment (format 1 or 2) → ``(header, records)``.

    Each record is ``{"seq", "key", "timestamp", "values"}`` with
    ``values`` a float64 array and ``key`` the decoded Python key.
    Raises :class:`WALError` for structural damage and
    :class:`TornWALError` (carrying the clean prefix) for a torn tail.
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
    if header.get("format") not in _READABLE_FORMATS:
        raise WALError(
            f"{path!r} has WAL format {header.get('format')!r}, "
            f"expected one of {_READABLE_FORMATS}")
    decode = _decode_v1 if header["format"] == 1 else _decode_v2

    records: list = []
    keys: dict = {}  # encoded key → decoded key, decoded once
    offset = newline + 1
    while offset < len(blob):
        good = offset
        if len(blob) - offset < _FRAME_SIZE:
            raise TornWALError(
                f"{path!r} ends mid-frame at byte {good}",
                good_offset=good, records=records)
        magic = blob[offset:offset + len(_RECORD_MAGIC)]
        length, crc = _FRAME.unpack_from(blob, offset + len(magic))
        offset += _FRAME_SIZE
        body = blob[offset:offset + length]
        if magic != _RECORD_MAGIC:
            raise WALError(
                f"{path!r} has a corrupt record marker at byte {good}")
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
            records.append(decode(body, keys))
        except Exception as exc:
            raise WALError(
                f"{path!r} has an undecodable record at byte {good}: "
                f"{exc}") from exc
    return header, records


def _decode_v1(body: bytes, keys: dict) -> dict:
    """A format-1 tick: JSON line header, then the raw values."""
    newline = body.find(b"\n")
    if newline < 0:
        raise ValueError("record has no header line")
    meta = json.loads(body[:newline].decode("utf-8"))
    shape = tuple(int(d) for d in meta["shape"])
    return _record(int(meta["seq"]), decode_key(meta["key"]),
                   float(meta["timestamp"]), shape, body[newline + 1:])


def _decode_v2(body: bytes, keys: dict) -> dict:
    """A format-2 tick: the fixed-width head, the key, the raw values."""
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
    return _record(seq, key, timestamp, shape, body[start:])


def _record(seq, key, timestamp, shape, payload: bytes) -> dict:
    expected = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
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
    """``"3-000000000012"`` → ``(3, 12)``; ``"000000000012"`` (the
    unlabeled name older single-process runs wrote) → ``(None, 12)``;
    anything else → ``None`` (not a durable file of ours)."""
    if stem.isdigit():
        return None, int(stem)
    shard_part, sep, seq_part = stem.partition("-")
    if sep and shard_part.isdigit() and seq_part.isdigit():
        return int(shard_part), int(seq_part)
    return None


def chain_files(directory: str) -> list:
    """Every durable file in ``directory`` → ``[(kind, shard, seq, path)]``.

    ``shard`` is ``None`` for a legacy unlabeled chain: still read (the
    recoverer reshards it onto the live ring), never written.
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
    """Distinct shard labels with snapshots or WAL segments, legacy
    unlabeled (``None``) first."""
    labels = {shard for _, shard, _, _ in chain_files(directory)}
    return ([None] if None in labels else []) + sorted(labels - {None})


def wal_paths(directory: str, start_seq: int = 0, shard: int | None = 0):
    """Sorted ``[(base_seq, path)]`` of one shard's WAL segments with
    base >= ``start_seq`` (``shard=None`` selects a legacy chain)."""
    return sorted((seq, path)
                  for kind, label, seq, path in chain_files(directory)
                  if kind == "wal" and label == shard and seq >= start_seq)
