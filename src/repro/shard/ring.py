"""Deterministic consistent-hash ring with virtual nodes.

The sharded runtime needs a stable ``key → shard`` assignment with two
properties a plain ``hash(key) % N`` cannot give:

* **process stability** — the same key must land on the same shard in
  every process, every run, every Python version.  Points come from
  ``blake2b`` (not the salted builtin ``hash``) over a canonical JSON
  encoding of the key (:func:`repro.durable.keys.encode_key`, the same
  encoding the WAL uses), so assignment is a pure function of the key
  and the ring shape.
* **minimal movement** — growing ``N → N+1`` shards must not reshuffle
  the world.  Each shard projects ``vnodes`` points onto a 64-bit ring;
  a key belongs to the first point at or after its own hash (wrapping).
  Adding a shard inserts only that shard's points, so the only keys
  that move are the ones now falling in the new shard's arcs — on
  average ``1/(N+1)`` of them; removing a shard moves only its own keys.

With enough virtual nodes (the default 64 per shard) the arcs average
out and shards stay within a small factor of the fair share — the
property tests in ``tests/test_shard_properties.py`` pin both bounds.

A one-shard ring — the default deployment — owns every key, so
:meth:`HashRing.shard_for` returns its only label without hashing.
"""

from __future__ import annotations

import bisect
import hashlib
import json

from ..durable.keys import encode_key

__all__ = ["DEFAULT_VNODES", "HashRing"]

#: Virtual nodes per shard; enough for ±balance without slowing lookups.
DEFAULT_VNODES = 64


def _point(token: str) -> int:
    """Map a token to a 64-bit ring position (keyless blake2b)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def key_point(key) -> int:
    """Ring position of a stream key (canonical-JSON encoded)."""
    token = json.dumps(encode_key(key), sort_keys=True,
                       separators=(",", ":"))
    return _point("key:" + token)


class HashRing:
    """Consistent assignment of stream keys to shard labels ``0..N-1``.

    Parameters
    ----------
    shards:
        Initial shard count; labels ``0 .. shards-1`` are placed.
    vnodes:
        Virtual nodes per shard.  More vnodes → tighter balance,
        linearly more memory and ``log``-factor slower lookups.
    """

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        #: Sorted ``(point, shard)`` pairs; ties break by shard label so
        #: even a point collision resolves identically everywhere.
        self._ring: list[tuple[int, int]] = []
        self._shards: set[int] = set()
        for shard in range(int(shards)):
            self.add_shard(shard)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[int]:
        """Sorted shard labels currently on the ring."""
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard) -> bool:
        return shard in self._shards

    def add_shard(self, shard: int) -> None:
        """Place ``shard``'s virtual nodes (moves only keys it now owns)."""
        shard = int(shard)
        if shard < 0:
            raise ValueError("shard labels must be non-negative")
        if shard in self._shards:
            raise ValueError(f"shard {shard} is already on the ring")
        for vnode in range(self.vnodes):
            entry = (_point(f"shard:{shard}/vnode:{vnode}"), shard)
            bisect.insort(self._ring, entry)
        self._shards.add(shard)

    def remove_shard(self, shard: int) -> None:
        """Drop ``shard`` (its keys redistribute; nobody else moves)."""
        shard = int(shard)
        if shard not in self._shards:
            raise ValueError(f"shard {shard} is not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._ring = [entry for entry in self._ring if entry[1] != shard]
        self._shards.remove(shard)

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def shard_for(self, key) -> int:
        """The shard owning ``key`` — stable across processes and runs."""
        if len(self._shards) == 1:
            (only,) = self._shards
            return only
        point = key_point(key)
        index = bisect.bisect_right(self._ring, (point, 2**64))
        if index == len(self._ring):
            index = 0  # wrap past the highest point
        return self._ring[index][1]

    def partition(self, keys) -> dict[int, list]:
        """Group ``keys`` by owning shard (shards with no keys omitted)."""
        groups: dict[int, list] = {}
        for key in keys:
            groups.setdefault(self.shard_for(key), []).append(key)
        return groups
