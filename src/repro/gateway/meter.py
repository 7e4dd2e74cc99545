"""Per-tenant request-unit accounting and token-bucket rate limiting.

The metering model follows the pass-group spending discipline of
ZKAPAuthorizer's ``spending.py``: a tenant is *issued* a pool of
request units, and every priced operation first carves a
:class:`UnitReservation` out of the pool (units move from *remaining*
to *reserved*), then either **commits** it (units become *spent*,
irrevocably) or **releases** it (units return to *remaining*, as if
never touched).  Reservations can be **split**, to commit the part
that was used and release the rest, and pools can be **expanded** when
an operator raises a tenant's quota in the key file (hot reload picks
it up).

The invariant the whole gateway leans on, checked by the hypothesis
stateful suite::

    issued == spent + reserved + remaining        (always)

and, because a rejected request only ever reserves-then-releases, a
``429``/``503`` response can never move a unit into ``spent`` — shed
load is free for the tenant.

Prices are deliberately coarse: a forecast costs
:data:`PREDICT_UNITS` (it runs a student forward), an ingested tick
costs :data:`INGEST_UNITS` (it touches a ring buffer; cadence-triggered
re-forecasts ride on the ingest price, matching how the streaming layer
amortizes them through the micro-batch queue).
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "INGEST_UNITS",
    "PREDICT_UNITS",
    "Meter",
    "QuotaError",
    "TenantAccount",
    "TokenBucket",
    "UnitReservation",
]

#: Units one forecast (``POST /v1/predict``) costs.
PREDICT_UNITS = 4

#: Units one ingested tick (``POST /v1/ingest``, per row) costs.
INGEST_UNITS = 1


class QuotaError(Exception):
    """A reservation would overdraw the tenant's unit pool."""

    def __init__(self, tenant: str, requested: int, remaining: int):
        self.tenant = tenant
        self.requested = int(requested)
        self.remaining = int(remaining)
        super().__init__(
            f"tenant {tenant!r} requested {requested} unit(s) with only "
            f"{remaining} remaining")


class UnitReservation:
    """Units carved out of a tenant pool, pending commit or release.

    A reservation is single-shot: after :meth:`commit` or
    :meth:`release` it is empty and further calls are no-ops, so the
    request handlers' ``finally`` blocks can release unconditionally.
    """

    __slots__ = ("account", "units", "kind")

    def __init__(self, account: "TenantAccount", units: int, kind: str):
        self.account = account
        self.units = int(units)
        self.kind = kind

    def split(self, units: int) -> tuple["UnitReservation", "UnitReservation"]:
        """Divide into ``(first, rest)`` reservations of ``units`` and
        the remainder — the pass-group ``split`` idiom, for an
        operation that commits part of what it reserved.
        """
        units = int(units)
        if not 0 <= units <= self.units:
            raise ValueError(
                f"cannot split {units} unit(s) out of a reservation "
                f"holding {self.units}")
        rest = UnitReservation(self.account, self.units - units, self.kind)
        self.units = units
        return self, rest

    def commit(self) -> None:
        """Mark the reserved units spent (the work happened)."""
        self.account._settle(self, spend=True)

    def release(self) -> None:
        """Return the reserved units untouched (the work was shed)."""
        self.account._settle(self, spend=False)


class TenantAccount:
    """One tenant's unit pool: issued / spent / reserved (+ breakdown).

    All mutation goes through the owning :class:`Meter`'s lock, so the
    conservation invariant holds under concurrent HTTP handlers.
    """

    def __init__(self, tenant: str, issued: int, lock: threading.Lock):
        if issued < 0:
            raise ValueError("issued units must be >= 0")
        self.tenant = tenant
        self.issued = int(issued)  # guarded-by: _lock
        self.spent = 0  # guarded-by: _lock
        self.reserved = 0  # guarded-by: _lock
        #: Spent units broken down by operation kind (predict/ingest).
        self.spent_by: dict[str, int] = {}  # guarded-by: _lock
        #: Committed operation counts by kind.
        self.ops_by: dict[str, int] = {}  # guarded-by: _lock
        self._lock = lock

    @property
    def remaining(self) -> int:  # requires-lock: _lock
        return self.issued - self.spent - self.reserved

    def reserve(self, units: int, kind: str = "predict") -> UnitReservation:
        """Move ``units`` from remaining to reserved, atomically.

        Raises :class:`QuotaError` (and changes nothing) when the pool
        cannot cover the request — the 429 path is read-only.
        """
        units = int(units)
        if units < 0:
            raise ValueError("cannot reserve a negative unit count")
        with self._lock:
            if units > self.remaining:
                raise QuotaError(self.tenant, units, self.remaining)
            self.reserved += units
            return UnitReservation(self, units, kind)

    def expand(self, issued: int) -> None:
        """Grow the pool to ``issued`` units (never shrinks).

        Called when a hot-reloaded key file raises a tenant's quota;
        lowering a live pool below what is already spent would break
        conservation, so shrinks are ignored.
        """
        with self._lock:
            if int(issued) > self.issued:
                self.issued = int(issued)

    def _settle(self, reservation: UnitReservation, spend: bool) -> None:
        with self._lock:
            units, reservation.units = reservation.units, 0
            if units == 0:
                return
            self.reserved -= units
            if spend:
                self.spent += units
                kind = reservation.kind
                self.spent_by[kind] = self.spent_by.get(kind, 0) + units
                self.ops_by[kind] = self.ops_by.get(kind, 0) + 1

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "tenant": self.tenant,
                "issued": self.issued,
                "spent": self.spent,
                "reserved": self.reserved,
                "remaining": self.remaining,
                "spent_by": dict(self.spent_by),
                "ops_by": dict(self.ops_by),
            }


class Meter:
    """Registry of per-tenant :class:`TenantAccount` pools.

    Accounts are created lazily on first touch with the issued size the
    caller supplies (normally the key registry's per-tenant quota).
    ``export_state``/``import_state`` round-trip the durable fields so
    metering survives a gateway restart (reservations are transient by
    construction — a restart sheds them, which is exactly a release).
    """

    def __init__(self, default_units: int = 0):
        if default_units < 0:
            raise ValueError("default_units must be >= 0")
        self.default_units = int(default_units)
        self._accounts: dict[str, TenantAccount] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def account(self, tenant: str,
                issued: int | None = None) -> TenantAccount:
        """The tenant's account, created (or expanded) to ``issued``.

        One critical section: the account shares this meter's lock, so
        a grown quota is expanded (as :meth:`TenantAccount.expand`
        would) without a second acquisition.
        """
        with self._lock:
            found = self._accounts.get(tenant)
            if found is None:
                found = TenantAccount(
                    tenant,
                    self.default_units if issued is None else issued,
                    self._lock)
                self._accounts[tenant] = found
            elif issued is not None and int(issued) > found.issued:
                found.issued = int(issued)
        return found

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._accounts)

    def usage(self) -> dict[str, dict]:
        """Per-tenant usage views (each taken atomically)."""
        with self._lock:
            accounts = list(self._accounts.values())
        return {account.tenant: account.as_dict() for account in accounts}

    # ------------------------------------------------------------------
    # durable usage
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """JSON-serializable usage (issued/spent + breakdowns).

        Reserved units are deliberately absent: they describe requests
        in flight in *this* process, and a restart resolves them as
        released.
        """
        return {"version": 1, "tenants": {
            tenant: {k: usage[k]
                     for k in ("issued", "spent", "spent_by", "ops_by")}
            for tenant, usage in self.usage().items()}}

    def import_state(self, payload: dict) -> None:
        """Fold exported usage back in (idempotent per tenant).

        Spent units and breakdowns are *added* to whatever this process
        already accounted (normally nothing — the gateway restores
        before serving); issued pools take the maximum, mirroring
        :meth:`TenantAccount.expand`.
        """
        for tenant, entry in dict(payload.get("tenants", {})).items():
            account = self.account(tenant, issued=int(entry["issued"]))
            with self._lock:
                account.spent += int(entry["spent"])
                for kind, units in dict(entry.get("spent_by", {})).items():
                    account.spent_by[kind] = (
                        account.spent_by.get(kind, 0) + int(units))
                for kind, count in dict(entry.get("ops_by", {})).items():
                    account.ops_by[kind] = (
                        account.ops_by.get(kind, 0) + int(count))


class TokenBucket:
    """Classic token bucket: ``rate`` units/second, ``burst`` capacity.

    :meth:`try_acquire` either consumes ``cost`` tokens and returns
    ``0.0``, or consumes *nothing* and returns the seconds until the
    deficit refills — the ``Retry-After`` value for the 429 response.
    A failed acquire never mutates the spendable state, which is what
    lets the stateful tests assert rate-shed requests are side-effect
    free.
    """

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive (units per second)")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst  # guarded-by: _lock
        self._stamp = clock()  # guarded-by: _lock
        self._lock = threading.Lock()

    def _refill(self) -> None:  # requires-lock: _lock
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_acquire(self, cost: float = 1.0) -> float:
        """Returns 0.0 on success, else seconds until ``cost`` fits."""
        cost = float(cost)
        with self._lock:
            self._refill()
            if cost <= self._tokens:
                self._tokens -= cost
                return 0.0
            return (cost - self._tokens) / self.rate

    def available(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens
