"""Stages and per-chain verification for fail-closed recovery.

:class:`~repro.durable.shard.ShardedRecoverer` walks explicit stages::

    inactive → reading → verifying → importing → succeeded
                                   ↘ failed (with failure_reason)

modeled on ZKAPAuthorizer's stateful recoverer pattern: the stage
and an inspectable ``failure_reason`` are first-class state an operator
(or the ``stream --resume`` CLI) can query, not buried in a traceback.
This module holds the stage types and the two per-chain steps the
recoverer runs for every shard — :func:`locate_chain` (reading) and
:func:`verify_chain` (verifying); a chain is one snapshot plus the WAL
segments after it.

The contract is *all or nothing*.  Verification — format version,
sha256 digest, config identity, artifact weight digest, WAL chain
contiguity — completes **before** any live state is touched; a failure
there leaves the forecaster exactly as it was.  Once importing begins,
any error (including an injected crash) clears the forecaster entirely:
a half-imported universe would silently violate the replay-parity
guarantee, which is strictly worse than an empty one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .snapshot import (
    SnapshotError,
    latest_snapshot,
    load_snapshot_arrays,
    state_from_arrays,
    verify_snapshot,
)
from .wal import TornWALError, WALError, read_wal, wal_paths

__all__ = [
    "ChainVerificationError",
    "RecoveryError",
    "RecoveryStages",
    "RecoveryState",
    "locate_chain",
    "verify_chain",
]

#: Config fields that define *identity*: restoring across a difference
#: in any of these would change window contents or grid semantics.
#: Any other field (the cadence, say) is policy and may differ.
STRICT_CONFIG_FIELDS = (
    "dataset", "horizon", "input_len", "horizon_len", "num_variables",
    "interval", "policy", "max_gap", "capacity", "raw_values",
)


class RecoveryStages(enum.Enum):
    INACTIVE = "inactive"
    READING = "reading"
    VERIFYING = "verifying"
    IMPORTING = "importing"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class RecoveryState:
    """Where recovery stands — stage, why it failed, what it found."""

    stage: RecoveryStages = RecoveryStages.INACTIVE
    failure_reason: str | None = None
    detail: dict = field(default_factory=dict)


class RecoveryError(RuntimeError):
    """Raised by :meth:`ShardedStreamingForecaster.restore_from` on failure.

    Carries the final :class:`RecoveryState` as ``state``.
    """

    def __init__(self, state: RecoveryState):
        super().__init__(state.failure_reason or "recovery failed")
        self.state = state


class ChainVerificationError(RuntimeError):
    """One snapshot/WAL chain cannot be read or verified.

    Raised by :func:`locate_chain` / :func:`verify_chain`; recoverers
    catch it and surface ``reason`` (verbatim) as ``failure_reason``
    with ``detail`` merged into the recovery state.
    """

    def __init__(self, reason: str, **detail):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


# ----------------------------------------------------------------------
# chain reading + verification (run once per shard label)
# ----------------------------------------------------------------------
def locate_chain(directory: str, *, shard: int = 0,
                 replay_wal: bool = True):
    """Find one shard's newest snapshot → ``(path, arrays)``.

    With no snapshot present but a WAL chain available and
    ``replay_wal`` set, ``(None, None)`` is returned for a WAL-only
    bootstrap.  This is the recoverer's *reading* stage: failures
    raise :class:`ChainVerificationError`.
    """
    snapshot_path = latest_snapshot(directory, shard=shard)
    arrays = None
    if snapshot_path is not None:
        try:
            arrays = load_snapshot_arrays(snapshot_path)
        except SnapshotError as error:
            raise ChainVerificationError(
                str(error), snapshot_path=snapshot_path) from error
    elif not replay_wal or not wal_paths(directory, 0, shard=shard):
        raise ChainVerificationError(f"no snapshot found in {directory!r}")
    return snapshot_path, arrays


def verify_chain(directory: str, snapshot_path, arrays, forecaster, *,
                 shard: int = 0, replay_wal: bool = True,
                 strict_wal: bool = True):
    """Verify one chain end to end → ``(state, records, snapshot_seq)``.

    Checks the snapshot's format/digest/config-identity/artifact
    provenance and the contiguity of the WAL chain after it, without
    touching any live state (the recoverer's *verifying* stage).
    ``state`` is ``None`` for a WAL-only bootstrap; ``records`` are the
    verified ticks to replay.  Failures raise
    :class:`ChainVerificationError` with the canonical messages.
    """
    live_config = forecaster.durable_config()
    state = None
    snapshot_seq = 0
    wal_config = None
    wal_digest = None
    if arrays is not None:
        try:
            config, meta = verify_snapshot(arrays, snapshot_path)
            state = state_from_arrays(arrays, config, meta)
        except SnapshotError as error:
            raise ChainVerificationError(
                str(error), snapshot_path=snapshot_path) from error
        mismatch = _config_mismatch(config, live_config)
        if mismatch is not None:
            raise ChainVerificationError(
                mismatch, snapshot_path=snapshot_path)
        reason = _artifact_mismatch(meta.get("artifact_digest"), forecaster)
        if reason is not None:
            raise ChainVerificationError(
                reason, snapshot_path=snapshot_path)
        snapshot_seq = int(state["seq"])

    records: list = []
    if replay_wal:
        segments = wal_paths(directory, snapshot_seq, shard=shard)
        for base, path in segments:
            try:
                header, parsed = read_wal(path)
            except TornWALError as torn:
                if strict_wal:
                    raise ChainVerificationError(
                        f"torn WAL record: {torn}", wal_path=path) from torn
                parsed = torn.records
                header = None if not parsed else {"base_seq": base}
                records.extend(parsed)
                break  # nothing durable can follow a torn tail
            except WALError as error:
                raise ChainVerificationError(
                    f"corrupt WAL segment: {error}", wal_path=path) from error
            if state is None and wal_config is None:
                wal_config = header.get("config") or None
                wal_digest = header.get("artifact_digest")
            records.extend(parsed)
        expected = snapshot_seq + 1
        for record in records:
            if record["seq"] != expected:
                raise ChainVerificationError(
                    f"WAL gap: expected seq {expected}, found "
                    f"{record['seq']} — the log chain is incomplete")
            expected += 1
        if state is None:
            # Bootstrapping from the WAL alone: the header carries
            # the writing process's config + artifact digest.
            if wal_config:
                mismatch = _config_mismatch(wal_config, live_config)
                if mismatch is not None:
                    raise ChainVerificationError(mismatch)
            reason = _artifact_mismatch(wal_digest, forecaster)
            if reason is not None:
                raise ChainVerificationError(reason)
    return state, records, snapshot_seq


def _config_mismatch(stored: dict, live: dict) -> str | None:
    for fieldname in STRICT_CONFIG_FIELDS:
        if fieldname not in stored:
            return (f"config mismatch: snapshot records no "
                    f"{fieldname!r}")
        if stored[fieldname] != live[fieldname]:
            return (f"config mismatch: {fieldname} is "
                    f"{stored[fieldname]!r} in the snapshot but "
                    f"{live[fieldname]!r} in this forecaster")
    return None


def _artifact_mismatch(stored_digest, forecaster) -> str | None:
    if stored_digest is None:
        return None  # written without provenance; nothing to check
    from ..serve.artifact import ArtifactError, read_artifact_digest
    try:
        live = read_artifact_digest(
            forecaster.service.path_for(forecaster.model_key))
    except (KeyError, ArtifactError) as error:
        return (f"artifact digest unverifiable: {error}")
    if live != stored_digest:
        return ("artifact digest mismatch: the snapshot was taken "
                "against different student weights than this "
                "service is serving")
    return None
