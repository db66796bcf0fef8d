"""Collector-observation synthesis for blackholing requests.

Given a ground-truth :class:`~repro.workload.behavior.BlackholingRequest`,
decides which collector sessions observe it and with what AS path,
communities and next hop -- reproducing the visibility mechanics of
Sections 4.2 and 5:

* the blackholing provider itself exports the tagged prefix to its direct
  collector sessions (1-AS-distance observations) and, when it violates the
  no-export recommendation, leaks it a few hops further (Figure 7(c));
* IXP blackholing is observed by collectors peering at the IXP (0 AS
  distance, peer IP inside the peering LAN), and occasionally re-exported by
  other members;
* bundled announcements reach non-provider neighbours of the user, whose
  exports make the request visible even when no targeted provider
  propagates it (the "no-path" half of all inferences);
* the end of a blackholing appears either as an explicit withdrawal or as an
  untagged re-announcement (implicit withdrawal).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.bgp.attributes import AttributeTable, PathAttributes
from repro.bgp.community import Community, LargeCommunity
from repro.bgp.message import BgpMessage, BgpUpdate, BgpWithdrawal
from repro.routing.collectors import CollectorPlatform, PeerSession
from repro.routing.propagation import bounded_flood
from repro.topology.asgraph import Relationship
from repro.topology.generator import InternetTopology
from repro.workload.behavior import BlackholingRequest
from repro.workload.config import ScenarioConfig

__all__ = ["ObservationSynthesizer", "SyntheticObservation"]


@dataclass(frozen=True)
class SyntheticObservation:
    """One carrier of a blackholed route at one collector session."""

    project: str
    collector: str
    session: PeerSession
    as_path: tuple[int, ...]
    communities: tuple[Community | LargeCommunity, ...]
    next_hop: str


@dataclass
class ObservationSynthesizer:
    """Turns ground-truth requests into per-collector BGP messages.

    Message attributes come from ``attribute_table``, so messages with equal
    attributes share one object.  Each lookup follows the message's random
    draws, so sharing leaves the seeded stream unchanged.
    """

    topology: InternetTopology
    platforms: list[CollectorPlatform]
    config: ScenarioConfig
    attribute_table: AttributeTable = field(default_factory=AttributeTable)
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.config.seed ^ 0x0B5E)
        self._sessions_by_peer: dict[int, list[tuple[str, str, PeerSession]]] = {}
        self._sessions_by_ixp: dict[str, list[tuple[str, str, PeerSession]]] = {}
        for platform in self.platforms:
            for collector in platform.collectors:
                for session in collector.sessions:
                    self._sessions_by_peer.setdefault(session.peer_as, []).append(
                        (platform.project, collector.name, session)
                    )
                    if session.ixp_name is not None:
                        self._sessions_by_ixp.setdefault(session.ixp_name, []).append(
                            (platform.project, collector.name, session)
                        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def messages_for_request(
        self, request: BlackholingRequest, horizon: float
    ) -> Iterator[BgpMessage]:
        """All BGP messages any collector observes for one request, lazily.

        ``horizon`` is the end of the observation window: intervals still
        active at the horizon get no end message (they stay active).  The
        generator draws from the synthesizer's RNG in the same order as the
        old list-building implementation, so consuming it fully preserves
        the seeded message stream bit-for-bit.
        """
        observations = self.observations_for_request(request)
        for interval_start, interval_end in request.intervals:
            for observation in observations:
                yield from self._interval_messages(
                    request, observation, interval_start, interval_end, horizon
                )

    def observations_for_request(
        self, request: BlackholingRequest
    ) -> list[SyntheticObservation]:
        """Which sessions carry the request, and how (path/communities)."""
        carriers: dict[tuple[str, str, str], SyntheticObservation] = {}
        bundled_communities = request.all_communities

        for provider_key in request.provider_keys:
            community = request.communities_by_provider[provider_key]
            communities = bundled_communities if request.bundled else (community,)
            if provider_key.startswith("AS"):
                self._add_isp_provider_carriers(
                    carriers, request, int(provider_key[2:]), communities
                )
            else:
                self._add_ixp_carriers(carriers, request, provider_key, communities)

        if request.bundled:
            self._add_bundled_neighbour_carriers(carriers, request, bundled_communities)
        return sorted(
            carriers.values(), key=lambda o: (o.project, o.collector, o.session.peer_ip)
        )

    # ------------------------------------------------------------------ #
    # Carrier construction
    # ------------------------------------------------------------------ #
    def _add_carrier(
        self,
        carriers: dict[tuple[str, str, str], SyntheticObservation],
        project: str,
        collector: str,
        session: PeerSession,
        as_path: tuple[int, ...],
        communities: tuple[Community | LargeCommunity, ...],
        next_hop: str,
    ) -> None:
        if not self._session_exports(session, as_path):
            return
        key = (project, collector, session.peer_ip)
        existing = carriers.get(key)
        if existing is None:
            carriers[key] = SyntheticObservation(
                project, collector, session, as_path, communities, next_hop
            )
            return
        # The same session may carry the request for several providers (e.g.
        # separate per-provider announcements); merge the community sets.
        merged = tuple(sorted(set(existing.communities) | set(communities), key=str))
        carriers[key] = SyntheticObservation(
            project, collector, session, existing.as_path, merged, existing.next_hop
        )

    def _session_exports(self, session: PeerSession, as_path: tuple[int, ...]) -> bool:
        """Feed-type filter: customer feeds only carry customer-learned routes."""
        if session.feed in ("full", "partial"):
            return True
        peer = as_path[0]
        if len(as_path) == 1:
            return True  # the peer itself originated/announced the route
        learned_from = as_path[1]
        return self.topology.graph.relationship(peer, learned_from) is Relationship.CUSTOMER

    def _add_isp_provider_carriers(
        self,
        carriers: dict,
        request: BlackholingRequest,
        provider_asn: int,
        communities: tuple[Community | LargeCommunity, ...],
    ) -> None:
        graph = self.topology.graph
        if provider_asn not in graph:
            return
        service = self.topology.service_for(provider_asn)
        base_path = (provider_asn, request.user_asn)
        next_hop = self._null_next_hop(provider_asn)

        # Direct collector sessions of the provider.
        if self.rng.random() < self.config.provider_direct_export_probability:
            for project, collector, session in self._sessions_by_peer.get(provider_asn, []):
                self._add_carrier(
                    carriers, project, collector, session, base_path, communities, next_hop
                )

        # RFC-violating propagation beyond the provider.
        if service is not None and service.propagates_blackhole_routes:
            reached = bounded_flood(
                graph,
                provider_asn,
                max_hops=self.config.max_leak_hops,
                accept=self._flood_accept,
            )
            for asn, path_back in reached.items():
                if asn in (provider_asn, request.user_asn):
                    continue
                as_path = (asn,) + path_back + (request.user_asn,)
                for project, collector, session in self._sessions_by_peer.get(asn, []):
                    self._add_carrier(
                        carriers, project, collector, session, as_path, communities, next_hop
                    )

    def _add_ixp_carriers(
        self,
        carriers: dict,
        request: BlackholingRequest,
        ixp_name: str,
        communities: tuple[Community | LargeCommunity, ...],
    ) -> None:
        ixp = self.topology.ixp_by_name(ixp_name)
        next_hop = ixp.blackholing_ip

        # Collectors peering with the user over this IXP's LAN observe the
        # announcement directly (peer IP in the LAN, path = just the user).
        for project, collector, session in self._sessions_by_ixp.get(ixp_name, []):
            if session.peer_as == request.user_asn:
                self._add_carrier(
                    carriers,
                    project,
                    collector,
                    session,
                    (request.user_asn,),
                    communities,
                    next_hop,
                )

        # Other members may re-export the route-server-learned route towards
        # their own collector sessions elsewhere.
        for member in ixp.members:
            if member == request.user_asn:
                continue
            if member not in self._sessions_by_peer:
                continue
            if self.rng.random() >= self.config.ixp_member_reexport_probability:
                continue
            if ixp.rs_transparent:
                as_path = (member, request.user_asn)
            else:
                as_path = (member, ixp.route_server_asn, request.user_asn)
            for project, collector, session in self._sessions_by_peer[member]:
                if session.ixp_name == ixp_name:
                    continue  # already covered by the direct LAN observation
                self._add_carrier(
                    carriers, project, collector, session, as_path, communities, next_hop
                )

    def _add_bundled_neighbour_carriers(
        self,
        carriers: dict,
        request: BlackholingRequest,
        communities: tuple[Community | LargeCommunity, ...],
    ) -> None:
        graph = self.topology.graph
        user = request.user_asn
        if user not in graph:
            return
        provider_asns = {
            int(key[2:]) for key in request.provider_keys if key.startswith("AS")
        }
        next_hop = self._null_next_hop(user)

        # The user's own collector sessions always see its announcement.
        for project, collector, session in self._sessions_by_peer.get(user, []):
            self._add_carrier(
                carriers, project, collector, session, (user,), communities, next_hop
            )

        for neighbour in sorted(graph.neighbours(user)):
            if neighbour in provider_asns:
                continue
            if self.rng.random() >= self.config.bundled_accept_probability:
                continue
            base_path = (neighbour, user)
            for project, collector, session in self._sessions_by_peer.get(neighbour, []):
                self._add_carrier(
                    carriers, project, collector, session, base_path, communities, next_hop
                )
            # Limited onward propagation of the bundled /32.
            reached = bounded_flood(
                graph,
                neighbour,
                max_hops=max(0, self.config.max_leak_hops - 1),
                accept=self._flood_accept,
            )
            for asn, path_back in reached.items():
                if asn in (neighbour, user) or asn in provider_asns:
                    continue
                as_path = (asn,) + path_back + (user,)
                for project, collector, session in self._sessions_by_peer.get(asn, []):
                    self._add_carrier(
                        carriers, project, collector, session, as_path, communities, next_hop
                    )

    def _flood_accept(self, sender: int, receiver: int, relationship) -> bool:
        del sender, receiver, relationship
        return self.rng.random() < self.config.flood_accept_probability

    def _null_next_hop(self, asn: int) -> str:
        """A next-hop address inside the given AS (stand-in for a null route)."""
        autonomous_system = self.topology.get_as(asn)
        if autonomous_system.address_block is None:  # pragma: no cover
            return "192.0.2.1"
        return autonomous_system.address_block.address_at(66)

    # ------------------------------------------------------------------ #
    # Message emission
    # ------------------------------------------------------------------ #
    def _interval_messages(
        self,
        request: BlackholingRequest,
        observation: SyntheticObservation,
        start: float,
        end: float,
        horizon: float,
    ) -> list[BgpMessage]:
        session = observation.session
        jitter = self.rng.uniform(0.0, 5.0)
        standard = tuple(c for c in observation.communities if isinstance(c, Community))
        large = tuple(c for c in observation.communities if isinstance(c, LargeCommunity))
        announce = BgpUpdate(
            timestamp=start + jitter,
            collector=observation.collector,
            peer_ip=session.peer_ip,
            peer_as=session.peer_as,
            prefix=request.prefix,
            attributes=self.attribute_table.attributes(
                observation.as_path, observation.next_hop, standard, large
            ),
        )
        messages: list[BgpMessage] = [announce]
        if end >= horizon:
            return messages
        end_jitter = self.rng.uniform(0.0, 5.0)
        if self.rng.random() < self.config.explicit_withdrawal_probability:
            messages.append(
                BgpWithdrawal(
                    timestamp=end + end_jitter,
                    collector=observation.collector,
                    peer_ip=session.peer_ip,
                    peer_as=session.peer_as,
                    prefix=request.prefix,
                )
            )
        else:
            # Implicit withdrawal: the prefix is re-announced without any
            # blackhole community (back to regular routing).
            plain = self.topology.routing_communities.get(session.peer_as, [])
            messages.append(
                BgpUpdate(
                    timestamp=end + end_jitter,
                    collector=observation.collector,
                    peer_ip=session.peer_ip,
                    peer_as=session.peer_as,
                    prefix=request.prefix,
                    attributes=self.attribute_table.attributes(
                        observation.as_path, session.peer_ip, tuple(plain[:1])
                    ),
                )
            )
        return messages

    # ------------------------------------------------------------------ #
    # Background churn
    # ------------------------------------------------------------------ #
    def background_messages(self, start: float, end: float) -> Iterator[BgpMessage]:
        """Regular (non-blackhole) update churn over the window, lazily.

        Each burst re-announces one of a random peer's own prefixes with its
        informational communities -- providing /24-and-shorter data points
        for the Figure 2 comparison and exercising the engine's handling of
        untagged announcements for never-blackholed prefixes.
        """
        days = max(1, int((end - start) // 86_400))
        all_sessions = [
            (platform.project, collector.name, session)
            for platform in self.platforms
            for collector in platform.collectors
            for session in collector.sessions
        ]
        if not all_sessions:
            return
        per_day = self.config.background_updates_per_day
        total = int(per_day * days * len(self.platforms))
        # A session's churn always carries the same attributes; the memo
        # skips the table's community-keyed lookup on every repeat.
        session_attributes: dict[tuple[str, int], PathAttributes] = {}
        for _ in range(total):
            project, collector, session = self.rng.choice(all_sessions)
            peer = self.topology.ases.get(session.peer_as)
            if peer is None or not peer.prefixes:
                continue
            prefix = self.rng.choice(peer.prefixes)
            timestamp = self.rng.uniform(start, end)
            key = (session.peer_ip, session.peer_as)
            attributes = session_attributes.get(key)
            if attributes is None:
                communities = self.topology.routing_communities.get(session.peer_as, [])
                attributes = self.attribute_table.attributes(
                    (session.peer_as,), session.peer_ip, tuple(communities[:2])
                )
                session_attributes[key] = attributes
            yield BgpUpdate(
                timestamp=timestamp,
                collector=collector,
                peer_ip=session.peer_ip,
                peer_as=session.peer_as,
                prefix=prefix,
                attributes=attributes,
            )
