"""Tests for routing policies, propagation and collector platforms."""

import pytest

from repro.routing.collectors import FeedBuilder
from repro.routing.policy import RouteClass, better_route, should_export
from repro.routing.propagation import RoutePropagator, bounded_flood
from repro.topology.asgraph import AsGraph, Relationship
from repro.topology.types import AutonomousSystem, NetworkType


def _as(asn: int, tier: int = 2) -> AutonomousSystem:
    return AutonomousSystem(
        asn=asn,
        name=f"AS{asn}",
        network_type=NetworkType.TRANSIT_ACCESS,
        country="US",
        tier=tier,
    )


@pytest.fixture
def diamond_graph() -> AsGraph:
    """Origin 10 has providers 2 and 3; both buy from tier-1 1; 4 peers with 3."""
    graph = AsGraph()
    for asn in (1, 2, 3, 4, 10):
        graph.add_as(_as(asn, tier=1 if asn == 1 else 2))
    graph.add_p2c(1, 2)
    graph.add_p2c(1, 3)
    graph.add_p2c(2, 10)
    graph.add_p2c(3, 10)
    graph.add_p2p(3, 4)
    return graph


class TestPolicy:
    def test_route_class_ordering(self):
        assert RouteClass.CUSTOMER < RouteClass.PEER < RouteClass.PROVIDER
        assert better_route((RouteClass.CUSTOMER, 5, 1), (RouteClass.PEER, 1, 1))
        assert better_route((RouteClass.PEER, 2, 1), (RouteClass.PEER, 2, 9))

    def test_export_rules_are_valley_free(self):
        assert should_export(RouteClass.CUSTOMER, Relationship.PROVIDER)
        assert should_export(RouteClass.CUSTOMER, Relationship.PEER)
        assert should_export(RouteClass.ORIGIN, Relationship.PEER)
        assert not should_export(RouteClass.PEER, Relationship.PEER)
        assert not should_export(RouteClass.PROVIDER, Relationship.PROVIDER)
        assert should_export(RouteClass.PROVIDER, Relationship.CUSTOMER)

    def test_route_class_from_relationship(self):
        assert RouteClass.from_relationship(Relationship.CUSTOMER) is RouteClass.CUSTOMER
        assert RouteClass.from_relationship(Relationship.PEER) is RouteClass.PEER
        assert RouteClass.from_relationship(Relationship.PROVIDER) is RouteClass.PROVIDER


class TestPropagation:
    def test_providers_learn_customer_routes(self, diamond_graph):
        routes = RoutePropagator(diamond_graph).routes_to(10)
        assert routes[2].route_class is RouteClass.CUSTOMER
        assert routes[1].route_class is RouteClass.CUSTOMER
        assert routes[1].full_path()[-1] == 10

    def test_peer_learns_peer_route(self, diamond_graph):
        routes = RoutePropagator(diamond_graph).routes_to(10)
        assert routes[4].route_class is RouteClass.PEER
        assert routes[4].full_path() == (4, 3, 10)

    def test_origin_route(self, diamond_graph):
        routes = RoutePropagator(diamond_graph).routes_to(10)
        assert routes[10].route_class is RouteClass.ORIGIN
        assert routes[10].full_path() == (10,)

    def test_path_helper(self, diamond_graph):
        propagator = RoutePropagator(diamond_graph)
        assert propagator.path(1, 10) in ((1, 2, 10), (1, 3, 10))
        assert propagator.path(10, 10) == (10,)

    def test_provider_routes_flow_down(self):
        graph = AsGraph()
        for asn in (1, 2, 3):
            graph.add_as(_as(asn))
        graph.add_p2c(1, 2)
        graph.add_p2c(1, 3)
        routes = RoutePropagator(graph).routes_to(2)
        # AS3 learns the route from its provider AS1.
        assert routes[3].route_class is RouteClass.PROVIDER
        assert routes[3].full_path() == (3, 1, 2)

    def test_valley_free_no_transit_through_peer(self):
        # 4 -- 3 (peers), 3 <- 10 (customer), 5 buys from 4.
        graph = AsGraph()
        for asn in (3, 4, 5, 10):
            graph.add_as(_as(asn))
        graph.add_p2p(3, 4)
        graph.add_p2c(3, 10)
        graph.add_p2c(4, 5)
        routes = RoutePropagator(graph).routes_to(10)
        # 5 reaches 10 only through its provider 4, which learned it from a
        # peer; that is allowed (peer route exported to customer).
        assert routes[5].full_path() == (5, 4, 3, 10)
        # There must be no route that would require 4 to export a peer route
        # to its peer (none exist here), and 4's own route is a peer route.
        assert routes[4].route_class is RouteClass.PEER

    def test_unreachable_island(self):
        graph = AsGraph()
        graph.add_as(_as(1))
        graph.add_as(_as(2))
        routes = RoutePropagator(graph).routes_to(1)
        assert 2 not in routes

    def test_unknown_origin_raises(self, diamond_graph):
        with pytest.raises(KeyError):
            RoutePropagator(diamond_graph).routes_to(999)

    def test_cache_reuse(self, diamond_graph):
        propagator = RoutePropagator(diamond_graph)
        first = propagator.routes_to(10)
        assert propagator.routes_to(10) is first
        propagator.clear_cache()
        assert propagator.routes_to(10) is not first


class TestBoundedFlood:
    def test_hop_limit(self, diamond_graph):
        reached = bounded_flood(diamond_graph, 10, max_hops=1, accept=lambda *a: True)
        assert set(reached) == {10, 2, 3}
        reached = bounded_flood(diamond_graph, 10, max_hops=2, accept=lambda *a: True)
        assert set(reached) == {10, 2, 3, 1, 4}

    def test_accept_callback_filters(self, diamond_graph):
        reached = bounded_flood(
            diamond_graph, 10, max_hops=3, accept=lambda s, r, rel: r != 3
        )
        assert 3 not in reached
        assert 4 not in reached  # only reachable through 3

    def test_paths_lead_back_to_start(self, diamond_graph):
        reached = bounded_flood(diamond_graph, 10, max_hops=3, accept=lambda *a: True)
        assert reached[10] == ()
        assert reached[1][-1] == 10


class TestCollectors:
    def test_default_platforms_cover_all_projects(self, small_topology, small_platforms):
        assert {p.project for p in small_platforms} == {"ris", "routeviews", "pch", "cdn"}
        for platform in small_platforms:
            assert platform.collectors

    def test_pch_collectors_sit_at_ixps(self, small_topology, small_platforms):
        pch = next(p for p in small_platforms if p.project == "pch")
        for collector in pch.collectors:
            assert collector.ixp_name is not None
            ixp = small_topology.ixp_by_name(collector.ixp_name)
            for session in collector.sessions:
                assert ixp.contains_peer_ip(session.peer_ip)
                assert session.peer_as in ixp.members

    def test_cdn_has_most_peers(self, small_platforms):
        by_project = {p.project: len(p.peer_asns()) for p in small_platforms}
        assert by_project["cdn"] >= max(
            by_project["ris"], by_project["routeviews"]
        )

    def test_feed_builder_rib_contents(self, small_topology, small_platforms):
        builder = FeedBuilder(small_topology)
        ris = next(p for p in small_platforms if p.project == "ris")
        collector = ris.collectors[0]
        rib = builder.build_rib(collector, timestamp=1000.0)
        assert len(rib) > 0
        # Every entry's peer is one of the collector's sessions and the AS
        # path ends at the prefix's originator.
        session_peers = {s.peer_ip for s in collector.sessions}
        for entry in rib:
            assert entry.peer_ip in session_peers
            origin = entry.attributes.as_path.origin_as
            origin_as = small_topology.get_as(origin)
            assert entry.prefix in origin_as.prefixes

    def test_customer_feed_is_subset_of_full_feed(self, small_topology):
        from repro.routing.collectors import Collector, PeerSession

        builder = FeedBuilder(small_topology)
        tier2 = next(a.asn for a in small_topology.ases.values() if a.tier == 2)
        peer_ip = small_topology.get_as(tier2).address_block.address_at(2)
        full = Collector("full", "ris", [PeerSession(tier2, peer_ip, "full")])
        customer = Collector("cust", "ris", [PeerSession(tier2, peer_ip, "customer")])
        full_rib = builder.build_rib(full, 0.0)
        customer_rib = builder.build_rib(customer, 0.0)
        assert customer_rib.prefixes() <= full_rib.prefixes()
        assert len(customer_rib) < len(full_rib)

    def test_invalid_feed_type_rejected(self):
        from repro.routing.collectors import PeerSession

        with pytest.raises(ValueError):
            PeerSession(1, "10.0.0.1", feed="bogus")
