"""BGP path attributes.

Only the attributes that matter for the methodology are modelled richly
(AS_PATH, NEXT_HOP, COMMUNITIES); the rest (ORIGIN, MED, LOCAL_PREF,
ATOMIC_AGGREGATE, AGGREGATOR) are carried so that wire round-trips and the
routing simulator stay faithful.

The AS_PATH helpers implement the two operations the inference engine needs:

* prepending removal -- "we infer the blackholing user as the AS before the
  blackholing provider along the AS path (after removing AS path
  prepending)" (Section 4.2);
* neighbour lookup -- finding the AS hop immediately before a given ASN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.bgp.community import CommunitySet

__all__ = ["AsPath", "Origin", "PathAttributes", "AttributeFlag", "AttributeType"]


class Origin(enum.IntEnum):
    """BGP ORIGIN attribute values."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class AttributeFlag(enum.IntFlag):
    """Path attribute flags (high nibble of the flags octet)."""

    OPTIONAL = 0x80
    TRANSITIVE = 0x40
    PARTIAL = 0x20
    EXTENDED_LENGTH = 0x10


class AttributeType(enum.IntEnum):
    """Path attribute type codes used by the wire codec."""

    ORIGIN = 1
    AS_PATH = 2
    NEXT_HOP = 3
    MULTI_EXIT_DISC = 4
    LOCAL_PREF = 5
    ATOMIC_AGGREGATE = 6
    AGGREGATOR = 7
    COMMUNITIES = 8
    MP_REACH_NLRI = 14
    MP_UNREACH_NLRI = 15
    EXTENDED_COMMUNITIES = 16
    AS4_PATH = 17
    LARGE_COMMUNITIES = 32


#: Marks an :class:`AsPath` whose collapsed form is not memoised yet.
_UNSET = object()


@dataclass(frozen=True)
class AsPath:
    """An AS_PATH as an ordered tuple of AS_SEQUENCE hops.

    AS_SETs are not modelled (they are deprecated and play no role in the
    paper's datasets); prepending is simply repeated hops.
    """

    hops: tuple[int, ...] = ()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_hops(cls, hops: Iterable[int]) -> "AsPath":
        return cls(tuple(int(h) for h in hops))

    @classmethod
    def from_string(cls, text: str) -> "AsPath":
        """Parse a space-separated AS path string (``"3356 1299 64500"``)."""
        cleaned = text.strip()
        if not cleaned:
            return cls(())
        return cls(tuple(int(token) for token in cleaned.split()))

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        return iter(self.hops)

    def __contains__(self, asn: object) -> bool:
        return asn in self.hops

    def __str__(self) -> str:  # pragma: no cover - trivial
        return " ".join(str(hop) for hop in self.hops)

    # ------------------------------------------------------------------ #
    @property
    def origin_as(self) -> int | None:
        """The rightmost (originating) ASN, or None for an empty path."""
        return self.hops[-1] if self.hops else None

    @property
    def peer_as(self) -> int | None:
        """The leftmost ASN -- the collector-facing neighbour."""
        return self.hops[0] if self.hops else None

    def without_prepending(self) -> "AsPath":
        """Collapse consecutive duplicate hops (AS-path prepending).

        Memoised on the instance: the provider resolution asks for it
        several times per tagged elem, and every elem of a message shares
        the message's path.  The memo holds ``None`` when the path has no
        prepending (the path itself is the answer), so an instance never
        references itself.
        """
        cached = self.__dict__.get("_collapsed", _UNSET)
        if cached is not _UNSET:
            return self if cached is None else cached
        collapsed: list[int] = []
        for hop in self.hops:
            if not collapsed or collapsed[-1] != hop:
                collapsed.append(hop)
        if len(collapsed) == len(self.hops):
            object.__setattr__(self, "_collapsed", None)
            return self
        result = AsPath(tuple(collapsed))
        object.__setattr__(self, "_collapsed", result)
        return result

    def unique_hops(self) -> tuple[int, ...]:
        """Unique ASNs in path order (first occurrence wins)."""
        seen: list[int] = []
        for hop in self.hops:
            if hop not in seen:
                seen.append(hop)
        return tuple(seen)

    def as_distance_from_collector(self, asn: int) -> int | None:
        """Number of AS hops between the collector peer and ``asn``.

        Returns 0 when ``asn`` is the peer itself, 1 when it is the next
        hop, ..., and None when ``asn`` is not on the (deprepended) path.
        Used for the Figure 7(c) propagation analysis.
        """
        collapsed = self.without_prepending().hops
        for index, hop in enumerate(collapsed):
            if hop == asn:
                return index
        return None

    def hop_before(self, asn: int) -> int | None:
        """The ASN immediately *before* ``asn`` on the deprepended path.

        "Before" means closer to the origin (to the right in the textual
        path), because the blackholing user is the customer announcing the
        prefix towards the blackholing provider.  Returns None if ``asn`` is
        the origin or absent.
        """
        collapsed = self.without_prepending().hops
        for index, hop in enumerate(collapsed):
            if hop == asn:
                if index + 1 < len(collapsed):
                    return collapsed[index + 1]
                return None
        return None

    def prepend(self, asn: int, times: int = 1) -> "AsPath":
        """Return a new path with ``asn`` prepended ``times`` times."""
        if times < 1:
            raise ValueError("prepend count must be >= 1")
        return AsPath((asn,) * times + self.hops)

    def has_loop(self) -> bool:
        """True if any ASN appears in two non-adjacent runs (routing loop)."""
        collapsed = self.without_prepending().hops
        return len(collapsed) != len(set(collapsed))


@dataclass(frozen=True)
class PathAttributes:
    """The path attributes attached to a BGP announcement."""

    origin: Origin = Origin.IGP
    as_path: AsPath = field(default_factory=AsPath)
    next_hop: str | None = None
    med: int | None = None
    local_pref: int | None = None
    atomic_aggregate: bool = False
    aggregator: tuple[int, str] | None = None
    communities: CommunitySet = field(default_factory=CommunitySet)

    # ------------------------------------------------------------------ #
    def with_communities(self, communities: CommunitySet) -> "PathAttributes":
        return replace(self, communities=communities)

    def with_as_path(self, as_path: AsPath | Sequence[int]) -> "PathAttributes":
        if not isinstance(as_path, AsPath):
            as_path = AsPath.from_hops(as_path)
        return replace(self, as_path=as_path)

    def with_next_hop(self, next_hop: str) -> "PathAttributes":
        return replace(self, next_hop=next_hop)

    def prepended(self, asn: int, times: int = 1) -> "PathAttributes":
        """Return attributes with the AS path prepended by ``asn``."""
        return replace(self, as_path=self.as_path.prepend(asn, times))
