"""Versioned, digest-verified snapshots of the streaming universe.

A snapshot is one ``.npz`` archive capturing everything
:meth:`StreamingForecaster.export_state` knows about one shard — ring
buffers, cadence counters, latest forecasts, stream/service stats and
the append sequence number — written with the same atomic-write +
sha256-digest idiom as the student artifact bundles
(:mod:`repro.serve.artifact`).  Format 2 is columnar: one array per
field across the shard's K keys, in key-table order::

    __format__        int, bumped on breaking layout changes
    __config__        JSON of StreamingForecaster.durable_config()
    __meta__          JSON: seq, key table, last timestamps, stats,
                      provenance
    __digest__        sha256 over every other entry (corruption check)
    rings             (K, capacity, N) float64, each ring stored once
    counts            (K,) rows each ring has taken
    gaps              (K,) gap events per key
    pending           (K,) ticks since each key's last forecast
    has_latest        (K,) whether a latest forecast was issued
    latest            the issued latest forecasts stacked, in key
                      order (dtype preserved exactly; absent if none)

The key table (:func:`~repro.durable.keys.encode_key` payloads) and
the last timestamps live in the JSON block, where Python's float repr
round-trips exactly, so a restore is bitwise.  A ring is stored once
(``capacity`` rows): the second half of the doubled buffer only repeats
the first, and :meth:`SeriesState.from_state` writes both halves back.

This build reads only the format it writes: an archive of any other
format is refused with a :class:`SnapshotError` before a key is
imported.

:class:`StreamSnapshotter` attaches to a live forecaster and adds the
two checkpoint policies — on-demand :meth:`~StreamSnapshotter.checkpoint`
and every-N-ticks — plus an optional append-only tick WAL
(:mod:`repro.durable.wal`) covering the ticks after the last snapshot.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..nn.serialization import load_arrays, save_arrays
from ..persist import arrays_digest
from .faults import crashpoint
from .keys import decode_key, encode_key
from .wal import (RETIRED_LAYOUT_READER, TickWAL, chain_files, chain_path,
                  wal_paths)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "StreamSnapshotter",
    "latest_snapshot",
    "load_snapshot_arrays",
    "snapshot_paths",
    "staging_files",
    "state_from_arrays",
    "verify_snapshot",
    "write_snapshot",
]

#: Bump when the archive layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 2


class SnapshotError(RuntimeError):
    """A stream snapshot is unreadable, corrupt or mismatched."""


def _snapshot_digest(payload: dict) -> str:
    """sha256 over every entry except ``__digest__`` (artifact idiom)."""
    return arrays_digest(payload, skip=("__digest__",))


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def write_snapshot(path: str, state: dict, *, artifact_digest=None,
                   shard: int | None = None) -> str:
    """Serialize an exported forecaster state to ``path`` atomically.

    ``state`` is :meth:`StreamingForecaster.export_state` output;
    ``artifact_digest`` stamps the served weights so recovery refuses
    to import into a process serving different ones, and ``shard``
    records which shard produced the state in ``__meta__`` (recovery
    reads the label from the file name).  Returns the written path
    (``.npz`` appended when missing).  Raises :class:`SnapshotError`
    when the latest forecasts mix dtypes, rather than upcast them.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    entries = state["entries"]
    config = state["config"]
    ring_shape = (int(config["capacity"]), int(config["num_variables"]))
    rings = np.zeros((len(entries),) + ring_shape, dtype=np.float64)
    for row, entry in zip(rings, entries):
        buffer = entry["series"]["buffer"]
        if np.shape(buffer) != ring_shape:
            raise SnapshotError(
                f"ring of {entry['key']!r} has shape {np.shape(buffer)}, "
                f"expected {ring_shape}")
        row[:] = buffer
    latest = [entry["latest"] for entry in entries
              if entry["latest"] is not None]
    payload: dict[str, np.ndarray] = {
        "__format__": np.int64(SNAPSHOT_FORMAT_VERSION),
        "__config__": np.array(json.dumps(config, sort_keys=True)),
        "rings": rings,
        "counts": np.array([entry["series"]["count"] for entry in entries],
                           dtype=np.int64),
        "gaps": np.array([entry["gaps"] for entry in entries],
                         dtype=np.int64),
        "pending": np.array([entry["pending_ticks"] for entry in entries],
                            dtype=np.int64),
        "has_latest": np.array([entry["latest"] is not None
                                for entry in entries], dtype=bool),
    }
    if latest:
        # The latest forecast keeps its dtype: float32 from the student,
        # float64 once a raw-value stream's scaler inverts it.
        dtypes = {np.asarray(forecast).dtype for forecast in latest}
        if len(dtypes) > 1:
            raise SnapshotError(
                f"latest forecasts mix dtypes {sorted(map(str, dtypes))}; "
                f"stacking them would upcast")
        payload["latest"] = np.stack(latest)
    meta = {
        "seq": int(state["seq"]),
        "artifact_digest": artifact_digest,
        "shard": shard,
        "stream_stats": state["stream_stats"],
        "service_stats": state["service_stats"],
        "keys": [encode_key(entry["key"]) for entry in entries],
        "last_timestamps": [entry["last_timestamp"] for entry in entries],
    }
    payload["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    payload["__digest__"] = np.array(_snapshot_digest(payload))
    crashpoint("snapshot.publish")
    save_arrays(path, payload)
    return path


# ----------------------------------------------------------------------
# reading + verification
# ----------------------------------------------------------------------
def load_snapshot_arrays(path: str) -> dict[str, np.ndarray]:
    """Read a snapshot archive (the recoverer's *reading* stage)."""
    import zipfile

    try:
        return load_arrays(path)
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise SnapshotError(
            f"unreadable snapshot {path!r} (corrupt or truncated): "
            f"{error}") from error


def verify_snapshot(arrays: dict, path: str) -> tuple[dict, dict]:
    """Check format version, digest and JSON blocks → ``(config, meta)``.

    Raises :class:`SnapshotError` with a distinct message per failure —
    the recoverer surfaces it verbatim as ``failure_reason``.
    """
    for name in ("__format__", "__config__", "__meta__", "__digest__"):
        if name not in arrays:
            raise SnapshotError(
                f"{path!r} is not a stream snapshot: missing entry "
                f"{name!r}")
    version = int(arrays["__format__"])
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format {version} of {path!r} is not supported "
            f"(this build reads format {SNAPSHOT_FORMAT_VERSION}; format "
            f"1 was last read by {RETIRED_LAYOUT_READER})")
    if _snapshot_digest(arrays) != str(arrays["__digest__"]):
        raise SnapshotError(
            f"digest mismatch in {path!r}: the snapshot is corrupt or "
            f"tampered")
    try:
        config = json.loads(str(arrays["__config__"]))
        meta = json.loads(str(arrays["__meta__"]))
    except (TypeError, ValueError) as error:
        raise SnapshotError(
            f"invalid config/metadata in {path!r}: {error}") from error
    return config, meta


def state_from_arrays(arrays: dict, config: dict, meta: dict) -> dict:
    """Reassemble the :meth:`export_state`-shaped dict from an archive;
    each ring is a view of ``rings`` (the import copies it into both
    halves)."""
    try:
        keys = meta["keys"]
        last_timestamps = meta["last_timestamps"]
        input_len = int(config["input_len"])
        ring_shape = (int(config["capacity"]), int(config["num_variables"]))
        rings, counts = arrays["rings"], arrays["counts"]
        gaps, pending = arrays["gaps"], arrays["pending"]
        has_latest = arrays["has_latest"]
        latest = arrays["latest"] if has_latest.any() else None
    except KeyError as error:
        raise SnapshotError(
            f"snapshot is missing {error} — truncated or mismatched "
            f"archive") from error
    columns = (last_timestamps, rings, counts, gaps, pending, has_latest)
    if rings.shape[1:] != ring_shape or any(
            len(column) != len(keys) for column in columns):
        raise SnapshotError(
            f"snapshot columns disagree with its {len(keys)}-key table "
            f"of {ring_shape} rings")
    if latest is not None and len(latest) != int(has_latest.sum()):
        raise SnapshotError(
            f"snapshot holds {len(latest)} latest forecast(s) for "
            f"{int(has_latest.sum())} flagged key(s)")
    capacity, num_variables = ring_shape
    entries = []
    issued = 0
    for index, key in enumerate(keys):
        forecast = None
        if has_latest[index]:
            forecast = latest[issued]
            issued += 1
        entries.append({
            "key": decode_key(key),
            "series": {
                "input_len": input_len,
                "num_variables": num_variables,
                "capacity": capacity,
                "count": int(counts[index]),
                "buffer": rings[index],
            },
            "last_timestamp": last_timestamps[index],
            "gaps": int(gaps[index]),
            "pending_ticks": int(pending[index]),
            "latest": forecast,
        })
    return {
        "seq": int(meta["seq"]),
        "config": config,
        "stream_stats": meta["stream_stats"],
        "service_stats": meta["service_stats"],
        "entries": entries,
    }


# ----------------------------------------------------------------------
# directory layout
# ----------------------------------------------------------------------
def snapshot_paths(directory: str, shard: int = 0):
    """Sorted ``[(seq, path)]`` of one shard's snapshot files."""
    return sorted((seq, path)
                  for kind, label, seq, path in chain_files(directory)
                  if kind == "snapshot" and label == shard)


def staging_files(directory: str) -> list[tuple[int, str]]:
    """``[(shard, path)]`` of the staging files in ``directory``: the
    ``snapshot-{shard}-*.tmp`` and ``wal-{shard}-*.tmp`` files an atomic
    write leaves behind when a crash cuts it short."""
    found = []
    for name in os.listdir(directory):
        if not name.endswith(".tmp"):
            continue
        kind, _, rest = name.partition("-")
        label = rest.partition("-")[0]
        if kind in ("snapshot", "wal") and label.isdigit():
            found.append((int(label), os.path.join(directory, name)))
    return found


def latest_snapshot(directory: str, shard: int = 0) -> str | None:
    """Path of the highest-sequence snapshot in ``directory``, if any."""
    found = snapshot_paths(directory, shard=shard)
    return found[-1][1] if found else None


# ----------------------------------------------------------------------
# live checkpointing
# ----------------------------------------------------------------------
class StreamSnapshotter:
    """Checkpoint policy + WAL attached to one shard's forecaster.

    :class:`~repro.durable.shard.ShardedSnapshotter` attaches one per
    shard; this class is that per-shard piece.

    Parameters
    ----------
    forecaster:
        The shard's :class:`StreamingForecaster`.  The snapshotter
        hooks its append path (under the forecaster lock), so every
        accepted tick is logged and observed exactly once.
    directory:
        Where ``snapshot-{shard}-{seq}.npz`` and
        ``wal-{shard}-{seq}.log`` files live.
    every:
        Checkpoint automatically every ``every`` accepted ticks
        (``0`` = on-demand :meth:`checkpoint` only).  An automatic
        checkpoint whose snapshot write raises ``OSError`` or
        :class:`SnapshotError` (a full disk, say) does not fail the tick
        that triggered it: the tick is already logged and ingested.  It
        is counted in :attr:`checkpoint_failures` and retried a full
        interval later; the WAL segment is not rotated meanwhile, so
        recovery still chains the last published snapshot and that
        segment.  A checkpoint whose next WAL segment cannot be opened
        fails the same way (see :meth:`checkpoint`).
    wal:
        Keep an append-only tick log between checkpoints, so ticks
        after the last snapshot replay during recovery.  Write-ahead:
        a validated tick is logged before it is applied, and a tick
        whose record cannot be written is refused.
    fsync:
        Sync every WAL record to disk before its append returns
        (crash-proof against machine, not just process, death — at a
        per-tick latency cost).
    keep:
        How many recent snapshots to retain; older snapshots and WAL
        segments no recoverable chain needs are pruned at checkpoint.
    shard:
        The shard label every file name carries; pruning only ever
        touches this shard's files, so N workers can checkpoint into
        one directory without clobbering each other.
    """

    def __init__(self, forecaster, directory: str, *, every: int = 0,
                 wal: bool = True, fsync: bool = False, keep: int = 3,
                 shard: int = 0):
        if every < 0:
            raise ValueError("every must be >= 0 (0 = on-demand only)")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if int(shard) < 0:
            raise ValueError("shard must be a non-negative label")
        self.forecaster = forecaster
        self.directory = directory
        self.every = int(every)
        self.fsync = bool(fsync)
        self.keep = int(keep)
        self.shard = int(shard)
        self.wal_enabled = bool(wal)
        os.makedirs(directory, exist_ok=True)
        from ..serve.artifact import ArtifactError, read_artifact_digest
        try:
            self._artifact_digest = read_artifact_digest(
                forecaster.service.path_for(forecaster.model_key))
        except (KeyError, ArtifactError):
            self._artifact_digest = None
        self._wal: TickWAL | None = None  # guarded-by: forecaster._lock
        self._ticks_since = 0  # guarded-by: forecaster._lock
        #: Automatic checkpoints that failed (see ``every``).
        self.checkpoint_failures = 0  # guarded-by: forecaster._lock
        with forecaster._lock:
            if forecaster._snapshotter is not None:
                raise RuntimeError(
                    "forecaster already has a snapshotter attached")
            if self.wal_enabled:
                self._wal = self._open_wal(forecaster._seq)
            forecaster._snapshotter = self

    def _open_wal(self, base_seq: int) -> TickWAL:
        path = chain_path(self.directory, "wal", self.shard, base_seq)
        return TickWAL(path, base_seq,
                       config=self.forecaster.durable_config(),
                       artifact_digest=self._artifact_digest,
                       fsync=self.fsync)

    # called from StreamingForecaster.append, under the forecaster lock,
    # before the tick is applied: an error here refuses the tick
    # requires-lock: forecaster._lock
    def log(self, key, timestamp: float, values, seq: int) -> None:
        if self._wal is not None:
            self._wal.append(seq, key, timestamp, values)

    # called from StreamingForecaster.append, under the forecaster lock,
    # once the tick is applied and sequenced
    # requires-lock: forecaster._lock
    def observe(self) -> None:
        self._ticks_since += 1
        if self.every > 0 and self._ticks_since >= self.every:
            try:
                self.checkpoint()
            except (OSError, SnapshotError):
                self.checkpoint_failures += 1
                self._ticks_since = 0

    def checkpoint(self) -> str:
        """Write a full snapshot now; rotates the WAL segment.

        The snapshot, the rotation and the counter reset all happen
        under the forecaster lock, so the new WAL segment's base
        sequence is exactly the snapshot's — recovery chains them
        without guessing.  The new segment is open, and preallocated,
        before the old one closes, so a crash at any point finds one of
        them mapped.  When the new segment cannot be opened (a full
        disk), the snapshot is removed again and the old segment stays
        active: a recovery from that snapshot would skip the ticks the
        old segment goes on logging.
        """
        with self.forecaster._lock:
            state = self.forecaster.export_state()
            seq = int(state["seq"])
            path = chain_path(self.directory, "snapshot", self.shard, seq)
            path = write_snapshot(
                path, state, artifact_digest=self._artifact_digest,
                shard=self.shard)
            # A segment based at seq holds no tick yet: nothing to rotate.
            if self._wal is not None and self._wal.base_seq != seq:
                try:
                    wal = self._open_wal(seq)
                except BaseException:
                    os.unlink(path)
                    raise
                self._wal.close()
                self._wal = wal
            self._ticks_since = 0
            self._prune()
            return path

    def _prune(self) -> None:
        """Drop snapshots beyond ``keep``, the WAL segments before them
        and this shard's staging files.  No write of this shard is in
        flight under its lock, so a staging file is one a crash inside
        an atomic write left; other shards' are theirs to drop."""
        snapshots = snapshot_paths(self.directory, shard=self.shard)
        stale = [path for _, path in snapshots[:-self.keep]]
        if stale:
            # Each WAL segment's base is a snapshot seq (rotation happens
            # at checkpoint), so segments below the oldest kept snapshot
            # only cover ticks some kept snapshot already contains.
            oldest_kept = snapshots[-self.keep][0]
            stale += [path for base, path
                      in wal_paths(self.directory, shard=self.shard)
                      if base < oldest_kept]
        stale += [path for shard, path in staging_files(self.directory)
                  if shard == self.shard]
        for path in stale:
            try:
                os.unlink(path)
            except OSError:
                pass

    def close(self) -> None:
        """Detach from the forecaster and close the active WAL.

        The WAL teardown sits under the forecaster lock too: a tick
        racing ``close()`` must either append to the open segment or
        observe ``None``, never a closed handle.
        """
        with self.forecaster._lock:
            if self.forecaster._snapshotter is self:
                self.forecaster._snapshotter = None
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    def __enter__(self) -> "StreamSnapshotter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
