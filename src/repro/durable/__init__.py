"""``repro.durable`` — crash-safe persistence for the streaming layer.

The streaming subsystem (:mod:`repro.stream`) holds every per-series
ring buffer, Welford scaler, CUSUM drift monitor and cached forecast in
process memory; this package makes that universe survive a crash
without bending the repo's bitwise replay-parity guarantee:

* :mod:`~repro.durable.snapshot` — versioned, sha256-digested ``.npz``
  snapshots of the full :class:`~repro.stream.StreamingForecaster`
  state, written atomically; :class:`StreamSnapshotter` adds on-demand
  and every-N-ticks checkpoint policies.
* :mod:`~repro.durable.wal` — an append-only tick log covering the
  ticks between checkpoints (write-behind, CRC-framed, torn-tail
  aware).
* :mod:`~repro.durable.recover` — :class:`StatefulRecoverer`, staged
  ``inactive → reading → verifying → importing → succeeded/failed``
  recovery that verifies everything before touching live state and
  clears everything on a partial import (fail closed, never partial).
* :mod:`~repro.durable.faults` — deterministic fault injection (crash
  points + seeded file corrupters) used to prove the above.
* :mod:`~repro.durable.shard` — per-shard snapshot/WAL chains
  (``snapshot-{shard}-{seq}.npz``) for the sharded runtime
  (:mod:`repro.shard`), plus :class:`ShardedRecoverer` which restores
  an N-shard universe fail-closed and reshards ``N → M`` by routing
  recovered state through the target hash ring.

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
)
from .keys import KeyCodecError, decode_key, encode_key
from .recover import (
    ChainVerificationError,
    RecoveryError,
    RecoveryStages,
    RecoveryState,
    StatefulRecoverer,
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
    snapshot_shards,
    state_from_arrays,
    verify_snapshot,
    write_snapshot,
)
from .wal import (
    TickWAL,
    TornWALError,
    WALError,
    read_wal,
    wal_paths,
    wal_shards,
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
    "KeyCodecError",
    "decode_key",
    "encode_key",
    "ChainVerificationError",
    "RecoveryError",
    "RecoveryStages",
    "RecoveryState",
    "StatefulRecoverer",
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
    "snapshot_shards",
    "state_from_arrays",
    "verify_snapshot",
    "write_snapshot",
    "TickWAL",
    "TornWALError",
    "WALError",
    "read_wal",
    "wal_paths",
    "wal_shards",
]
