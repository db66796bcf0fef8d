"""Routing Information Bases.

Two RIB flavours are provided:

* :class:`RouteTable` -- the RIB of one simulated router/AS: best route per
  prefix, used by the routing simulator and the looking-glass substrate.
* :class:`Rib` -- a *collector-side* RIB: the set of routes a BGP collector
  has learned, organised per (peer, prefix) pair.  Its :meth:`Rib.dump`
  produces the "oldest BGP table dump" that initialises the inference engine
  (Section 4.2, "Initialization Based on BGP Table Dump").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.netutils.prefixes import Prefix

__all__ = ["Rib", "RibEntry", "RouteTable"]


@dataclass(frozen=True)
class RibEntry:
    """One route as stored in a collector RIB."""

    prefix: Prefix
    peer_ip: str
    peer_as: int
    attributes: PathAttributes
    timestamp: float

    def to_update(self, collector: str, timestamp: float | None = None) -> BgpUpdate:
        """Re-materialise the entry as a BGP announcement message."""
        return BgpUpdate(
            timestamp=self.timestamp if timestamp is None else timestamp,
            collector=collector,
            peer_ip=self.peer_ip,
            peer_as=self.peer_as,
            prefix=self.prefix,
            attributes=self.attributes,
        )


class Rib:
    """Collector-side RIB keyed on ``(peer_ip, prefix)``.

    The collector keeps one route per peer per prefix (Adj-RIB-In view),
    which matches how RIS/RouteViews table dumps are structured and how the
    paper tracks blackholing "at the granularity of individual BGP peers".
    """

    def __init__(self, collector: str) -> None:
        self.collector = collector
        self._routes: dict[tuple[str, Prefix], RibEntry] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[RibEntry]:
        return iter(self._routes.values())

    def __contains__(self, key: tuple[str, Prefix]) -> bool:
        return key in self._routes

    # ------------------------------------------------------------------ #
    def apply(self, message: BgpUpdate | BgpWithdrawal) -> None:
        """Apply an announcement or withdrawal to the RIB."""
        key = (message.peer_ip, message.prefix)
        if isinstance(message, BgpUpdate):
            self._routes[key] = RibEntry(
                prefix=message.prefix,
                peer_ip=message.peer_ip,
                peer_as=message.peer_as,
                attributes=message.attributes,
                timestamp=message.timestamp,
            )
        else:
            self._routes.pop(key, None)

    def apply_all(self, messages: Iterable[BgpUpdate | BgpWithdrawal]) -> None:
        for message in messages:
            self.apply(message)

    # ------------------------------------------------------------------ #
    def get(self, peer_ip: str, prefix: Prefix) -> RibEntry | None:
        return self._routes.get((peer_ip, prefix))

    def routes_for_prefix(self, prefix: Prefix) -> list[RibEntry]:
        """All per-peer routes currently held for a prefix."""
        return [entry for (_, p), entry in self._routes.items() if p == prefix]

    def prefixes(self) -> set[Prefix]:
        """The set of distinct prefixes present in the RIB."""
        return {prefix for (_, prefix) in self._routes}

    def peers(self) -> set[tuple[str, int]]:
        """Distinct (peer IP, peer AS) pairs present in the RIB."""
        return {(entry.peer_ip, entry.peer_as) for entry in self._routes.values()}

    def dump(self, timestamp: float | None = None) -> list[BgpUpdate]:
        """Produce a table dump as a list of announcement messages.

        Entries are emitted in deterministic (peer, prefix) order so that
        dumps are reproducible across runs.  The key spells out the fields
        ``Prefix`` orders by, so the sort compares tuples of builtins
        instead of calling the dataclass-generated ``__lt__``.
        """
        entries = sorted(
            self._routes.values(),
            key=lambda e: (e.peer_ip, e.prefix.family, e.prefix.network, e.prefix.length),
        )
        return [entry.to_update(self.collector, timestamp) for entry in entries]


class RouteTable:
    """The Loc-RIB of one simulated AS/router: best route per prefix."""

    def __init__(self, asn: int) -> None:
        self.asn = asn
        self._best: dict[Prefix, PathAttributes] = {}

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._best

    def install(self, prefix: Prefix, attributes: PathAttributes) -> None:
        """Install (or replace) the best route for a prefix."""
        self._best[prefix] = attributes

    def remove(self, prefix: Prefix) -> None:
        self._best.pop(prefix, None)

    def lookup_exact(self, prefix: Prefix) -> PathAttributes | None:
        return self._best.get(prefix)

    def lookup_longest(self, address: str) -> tuple[Prefix, PathAttributes] | None:
        """Longest-prefix-match lookup for a destination address.

        Linear scan over candidate prefixes: route tables in the simulator
        are small (thousands of entries), so this stays fast while keeping
        the implementation obvious.
        """
        best: tuple[Prefix, PathAttributes] | None = None
        for prefix, attributes in self._best.items():
            if prefix.contains_address(address):
                if best is None or prefix.length > best[0].length:
                    best = (prefix, attributes)
        return best

    def prefixes(self) -> set[Prefix]:
        return set(self._best)

    def entries(self) -> Iterator[tuple[Prefix, PathAttributes]]:
        return iter(sorted(self._best.items(), key=lambda item: item[0]))
