"""Route collector platforms.

Models the four BGP vantage-point platforms of the study (Section 3):

* **RIS** (RIPE Routing Information Service) and **RouteViews** -- a few
  collectors peering mostly with large transit providers in the core;
* **PCH** -- collectors located *at IXPs*, peering with IXP members over the
  peering LAN (which is what gives PCH its direct visibility into IXP
  blackholing);
* **CDN** -- a single logical platform with an order of magnitude more
  peers, including customer-specific/internal feeds from ISPs hosting CDN
  equipment.

:class:`FeedBuilder` turns the topology plus these platforms into the
regular-routing RIB each collector would dump -- the initialisation data of
the inference engine and the raw material of Table 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.attributes import AttributeTable, PathAttributes
from repro.bgp.message import BgpUpdate
from repro.bgp.rib import Rib
from repro.routing.policy import RouteClass
from repro.routing.propagation import RoutePropagator
from repro.topology.generator import InternetTopology

__all__ = [
    "Collector",
    "CollectorPlatform",
    "FeedBuilder",
    "PeerSession",
    "build_default_platforms",
]

#: Canonical project names used across the code base.
PROJECT_RIS = "ris"
PROJECT_ROUTEVIEWS = "routeviews"
PROJECT_PCH = "pch"
PROJECT_CDN = "cdn"


@dataclass(frozen=True)
class PeerSession:
    """One BGP session between a collector and a peer AS.

    ``feed`` is one of ``"full"``, ``"partial"`` or ``"customer"``: some
    peers send full tables, others partial views, and others only their
    customer routes (Section 3).  ``ixp_name`` is set when the session runs
    over an IXP peering LAN (PCH collectors, some CDN sessions), in which
    case ``peer_ip`` lies inside that LAN.
    """

    peer_as: int
    peer_ip: str
    feed: str = "full"
    ixp_name: str | None = None

    def __post_init__(self) -> None:
        if self.feed not in ("full", "partial", "customer"):
            raise ValueError(f"unknown feed type {self.feed!r}")


@dataclass
class Collector:
    """One route collector with its peering sessions."""

    name: str
    project: str
    sessions: list[PeerSession] = field(default_factory=list)
    ixp_name: str | None = None

    def session_for_peer(self, peer_as: int) -> PeerSession | None:
        for session in self.sessions:
            if session.peer_as == peer_as:
                return session
        return None

    def peer_asns(self) -> set[int]:
        return {session.peer_as for session in self.sessions}


@dataclass
class CollectorPlatform:
    """A collection project (RIS, RouteViews, PCH, CDN)."""

    project: str
    collectors: list[Collector] = field(default_factory=list)

    def all_sessions(self) -> list[tuple[Collector, PeerSession]]:
        return [
            (collector, session)
            for collector in self.collectors
            for session in collector.sessions
        ]

    def peer_asns(self) -> set[int]:
        return {s.peer_as for _, s in self.all_sessions()}

    def peer_ips(self) -> set[str]:
        return {s.peer_ip for _, s in self.all_sessions()}


def _peer_ip_for(topology: InternetTopology, asn: int, salt: int) -> str:
    """A router address inside the peer AS's allocation (deterministic)."""
    autonomous_system = topology.get_as(asn)
    block = autonomous_system.address_block
    if block is None:  # pragma: no cover - generator always assigns blocks
        raise ValueError(f"AS{asn} has no address block")
    return block.address_at(2 + salt % 200)


def build_default_platforms(
    topology: InternetTopology, seed: int | None = None
) -> list[CollectorPlatform]:
    """Build RIS, RouteViews, PCH and CDN platforms over a topology.

    Peer selection follows the biases described in Section 3: RIS and
    RouteViews peer with networks in the core (tier 1/2), PCH sits at IXPs,
    and the CDN has by far the most peers, spread across all network types
    and including customer/internal feeds.
    """
    rng = random.Random(topology.config.seed if seed is None else seed)

    tier12 = sorted(a.asn for a in topology.ases.values() if a.tier in (1, 2))
    everyone = sorted(topology.ases)

    platforms: list[CollectorPlatform] = []

    # ------------------------------------------------------------------ RIS
    ris = CollectorPlatform(PROJECT_RIS)
    ris_count = max(2, len(tier12) // 12)
    for index in range(ris_count):
        collector = Collector(name=f"rrc{index:02d}", project=PROJECT_RIS)
        peers = rng.sample(tier12, k=min(len(tier12), rng.randint(4, 8)))
        for peer in peers:
            feed = "full" if rng.random() < 0.6 else "partial"
            collector.sessions.append(
                PeerSession(peer, _peer_ip_for(topology, peer, index), feed)
            )
        ris.collectors.append(collector)
    platforms.append(ris)

    # ----------------------------------------------------------- RouteViews
    routeviews = CollectorPlatform(PROJECT_ROUTEVIEWS)
    rv_count = max(2, len(tier12) // 14)
    for index in range(rv_count):
        collector = Collector(name=f"route-views{index + 2}", project=PROJECT_ROUTEVIEWS)
        peers = rng.sample(tier12, k=min(len(tier12), rng.randint(3, 7)))
        for peer in peers:
            feed = "full" if rng.random() < 0.55 else "customer"
            collector.sessions.append(
                PeerSession(peer, _peer_ip_for(topology, peer, 100 + index), feed)
            )
        routeviews.collectors.append(collector)
    platforms.append(routeviews)

    # ------------------------------------------------------------------ PCH
    pch = CollectorPlatform(PROJECT_PCH)
    for index, ixp in enumerate(topology.ixps):
        if not ixp.has_pch_collector:
            continue
        collector = Collector(
            name=f"pch-{ixp.name.lower()}", project=PROJECT_PCH, ixp_name=ixp.name
        )
        # PCH peers with members over the route server: the session's peer is
        # the member (peer-as) and its address lies in the peering LAN
        # (peer-ip), which is precisely the signal used in Section 4.2.
        member_sample = [m for m in ixp.members if rng.random() < 0.7]
        for member in member_sample:
            collector.sessions.append(
                PeerSession(
                    member,
                    ixp.member_ip(member),
                    feed="customer" if rng.random() < 0.5 else "partial",
                    ixp_name=ixp.name,
                )
            )
        if collector.sessions:
            pch.collectors.append(collector)
    platforms.append(pch)

    # ------------------------------------------------------------------ CDN
    cdn = CollectorPlatform(PROJECT_CDN)
    collector = Collector(name="cdn", project=PROJECT_CDN)
    for asn in everyone:
        if rng.random() >= 0.55:
            continue
        # Many CDN feeds are internal/customer-specific, which is why the CDN
        # sees several times more unique prefixes than the public platforms.
        roll = rng.random()
        feed = "customer" if roll < 0.45 else ("partial" if roll < 0.7 else "full")
        ixps = topology.ixps_of_member(asn)
        if ixps and rng.random() < 0.3:
            ixp = ixps[0]
            collector.sessions.append(
                PeerSession(asn, ixp.member_ip(asn), feed, ixp_name=ixp.name)
            )
        else:
            collector.sessions.append(
                PeerSession(asn, _peer_ip_for(topology, asn, 300), feed)
            )
    cdn.collectors.append(collector)
    platforms.append(cdn)

    return platforms


class FeedBuilder:
    """Builds the regular-routing RIB each collector would dump.

    For every origin AS the Gao-Rexford propagation yields the best route of
    every other AS; a collector session then exports, per its feed type,
    the routes its peer AS selected.  Exported attributes come from
    ``attribute_table`` (a fresh :class:`AttributeTable` unless the caller
    shares one), so equal routes share one attribute object.
    """

    def __init__(
        self,
        topology: InternetTopology,
        propagator: RoutePropagator | None = None,
        attribute_table: AttributeTable | None = None,
    ) -> None:
        self.topology = topology
        self.propagator = propagator or RoutePropagator(topology.graph)
        self.attribute_table = AttributeTable() if attribute_table is None else attribute_table
        self._route_attributes: dict[tuple[tuple[int, ...], int], PathAttributes] = {}

    # ------------------------------------------------------------------ #
    def _exports(self, peer_as: int, feed: str) -> list[tuple]:
        """(prefix, as_path, origin) tuples the peer exports to a collector."""
        exports = []
        for origin_asn, autonomous_system in sorted(self.topology.ases.items()):
            routes = self.propagator.routes_to(origin_asn)
            route = routes.get(peer_as)
            if route is None:
                continue
            if feed == "customer" and route.route_class not in (
                RouteClass.ORIGIN,
                RouteClass.CUSTOMER,
            ):
                continue
            if feed == "partial" and route.route_class is RouteClass.PROVIDER:
                # Partial feeds omit the (numerous) provider-learned routes.
                continue
            path = route.full_path()
            for prefix in autonomous_system.prefixes:
                exports.append((prefix, path, origin_asn))
        return exports

    def _attributes_for(self, path: tuple[int, ...], peer_as: int) -> PathAttributes:
        """Attach the peer's informational communities to an exported route.

        Memoised on ``(path, peer_as)``: every prefix of an origin, and
        every collector session of the peer, exports the same route.
        """
        key = (path, peer_as)
        attributes = self._route_attributes.get(key)
        if attributes is None:
            tags = self.topology.routing_communities.get(peer_as, [])
            # Deterministic pick: customer-learned vs peer-learned tagging.
            communities = (tags[len(path) % len(tags)],) if tags else ()
            attributes = self.attribute_table.attributes(
                path, _peer_ip_for(self.topology, peer_as, 0), communities
            )
            self._route_attributes[key] = attributes
        return attributes

    def build_rib(
        self, collector: Collector, timestamp: float
    ) -> Rib:
        """The table dump of one collector at ``timestamp``."""
        rib = Rib(collector.name)
        for session in collector.sessions:
            for prefix, path, _origin in self._exports(session.peer_as, session.feed):
                update = BgpUpdate(
                    timestamp=timestamp,
                    collector=collector.name,
                    peer_ip=session.peer_ip,
                    peer_as=session.peer_as,
                    prefix=prefix,
                    attributes=self._attributes_for(path, session.peer_as),
                )
                rib.apply(update)
        return rib

    def build_all_ribs(
        self, platforms: list[CollectorPlatform], timestamp: float
    ) -> dict[str, Rib]:
        """Table dumps for every collector across all platforms."""
        ribs: dict[str, Rib] = {}
        for platform in platforms:
            for collector in platform.collectors:
                ribs[collector.name] = self.build_rib(collector, timestamp)
        return ribs
