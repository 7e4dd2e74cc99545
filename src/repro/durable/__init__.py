"""``repro.durable`` — crash-safe persistence for the streaming layer.

The streaming subsystem (:mod:`repro.stream`) holds every per-series
ring buffer, cadence counter and cached forecast in process memory;
this package makes that universe survive a crash without bending the
repo's bitwise replay-parity guarantee:

* :mod:`~repro.durable.snapshot` — versioned, sha256-digested,
  columnar ``.npz`` snapshots of one shard's
  :class:`~repro.stream.StreamingForecaster` state (one array per
  field, each ring stored once), written atomically;
  :class:`StreamSnapshotter` adds on-demand and every-N-ticks
  checkpoint policies for that shard.
* :mod:`~repro.durable.wal` — an append-only binary tick log covering
  the ticks between checkpoints (write-ahead, CRC-framed, appended by
  memory copies into a mapped segment, torn-tail aware, each key
  encoded once per segment), and the one file-naming
  scheme: every file written is ``snapshot-{shard}-{seq}.npz`` or
  ``wal-{shard}-{seq}.log``.  Both read only the format they write,
  format 2, and refuse any other before a key is imported.
* :mod:`~repro.durable.shard` — the snapshotter and the recoverer of
  a deployment (:mod:`repro.shard`, one worker by default):
  :class:`ShardedSnapshotter` keeps one chain per shard (a snapshot
  plus the WAL segments after it) and :class:`ShardedRecoverer`
  restores the universe with staged
  ``inactive → reading → verifying → importing → succeeded/failed``
  recovery that verifies every chain before touching live state,
  clears everything on a partial import (fail closed, never partial)
  and reshards ``N → M`` through the target hash ring.  A chain whose
  names carry no shard label is refused before any chain is read.
* :mod:`~repro.durable.recover` — the stage types and the per-chain
  reading and verifying steps.
* :mod:`~repro.durable.faults` — deterministic fault injection (crash
  points + seeded file corrupters) used to prove the above.

Recovered forecasts are bitwise identical to an uninterrupted run: a
replay killed at an arbitrary tick, recovered and finished produces
exactly the bytes the unkilled replay would have.  Sidecar files
(``--stats-out``, usage) use the atomic writers in :mod:`repro.persist`.
"""

from .faults import (
    InjectedCrash,
    arm,
    crashpoint,
    disarm,
    disarm_all,
    flip_byte,
    flip_digest_byte,
    inject,
    torn_tail,
    truncate_file,
    uncommitted_frame,
)
from .keys import KeyCodecError, decode_key, encode_key
from .recover import (
    ChainVerificationError,
    RecoveryError,
    RecoveryStages,
    RecoveryState,
    locate_chain,
    verify_chain,
)
from .shard import ShardedRecoverer, ShardedSnapshotter
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    StreamSnapshotter,
    latest_snapshot,
    load_snapshot_arrays,
    snapshot_paths,
    state_from_arrays,
    verify_snapshot,
    write_snapshot,
)
from .wal import (
    TickWAL,
    TornWALError,
    WALError,
    chain_files,
    chain_labels,
    read_wal,
    scan_wal,
    wal_paths,
)

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
    "KeyCodecError",
    "decode_key",
    "encode_key",
    "ChainVerificationError",
    "RecoveryError",
    "RecoveryStages",
    "RecoveryState",
    "locate_chain",
    "verify_chain",
    "ShardedRecoverer",
    "ShardedSnapshotter",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "StreamSnapshotter",
    "latest_snapshot",
    "load_snapshot_arrays",
    "snapshot_paths",
    "state_from_arrays",
    "verify_snapshot",
    "write_snapshot",
    "TickWAL",
    "TornWALError",
    "WALError",
    "chain_files",
    "chain_labels",
    "read_wal",
    "scan_wal",
    "wal_paths",
]
