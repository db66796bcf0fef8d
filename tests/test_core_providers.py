"""Tests for blackholing provider/user resolution (Section 4.2 checks)."""

import dataclasses

import pytest

from repro.bgp.community import BLACKHOLE_COMMUNITY, Community
from repro.core.events import DetectionMethod
from repro.core.inference import BlackholingInferenceEngine
from repro.core.providers import ProviderResolver
from repro.dictionary.model import BlackholeDictionary, CommunityEntry, CommunitySource
from repro.netutils.prefixes import Prefix
from repro.stream.record import ElemType, StreamElem
from repro.bgp.attributes import AsPath
from repro.bgp.community import CommunitySet
from repro.topology.ixp import Ixp
from repro.topology.peeringdb import PeeringDbDataset


PROVIDER = 3356
OTHER_PROVIDER = 2914
USER = 64500
ORIGIN = 64501


def _dictionary() -> BlackholeDictionary:
    return BlackholeDictionary(
        [
            CommunityEntry(Community(PROVIDER, 666), PROVIDER, CommunitySource.IRR),
            CommunityEntry(Community(0, 666), PROVIDER, CommunitySource.IRR),
            CommunityEntry(Community(0, 666), OTHER_PROVIDER, CommunitySource.IRR),
            CommunityEntry(
                BLACKHOLE_COMMUNITY, 59000, CommunitySource.WEB, ixp_name="DE-CIX-SIM"
            ),
        ]
    )


def _peeringdb() -> PeeringDbDataset:
    ixp = Ixp(
        name="DE-CIX-SIM",
        route_server_asn=59000,
        peering_lan=Prefix.from_string("185.7.0.0/24"),
        country="DE",
        members=[USER, 64502],
        offers_blackholing=True,
    )
    dataset = PeeringDbDataset()
    dataset.ixp_lans[ixp.name] = ixp.peering_lan
    dataset.ixp_route_servers[ixp.route_server_asn] = ixp.name
    return dataset


def _elem(
    communities: list[str],
    as_path: list[int],
    peer_ip: str = "10.0.0.1",
    peer_as: int | None = None,
    elem_type: ElemType = ElemType.ANNOUNCEMENT,
) -> StreamElem:
    return StreamElem(
        timestamp=100.0,
        elem_type=elem_type,
        project="ris",
        collector="rrc00",
        peer_ip=peer_ip,
        peer_as=peer_as if peer_as is not None else (as_path[0] if as_path else 0),
        prefix=Prefix.from_string("203.0.113.9/32"),
        as_path=AsPath.from_hops(as_path),
        communities=CommunitySet.from_strings(communities),
    )


@pytest.fixture
def resolver() -> ProviderResolver:
    return ProviderResolver(_dictionary(), _peeringdb())


class TestIspResolution:
    def test_on_path_provider(self, resolver):
        elem = _elem([f"{PROVIDER}:666"], [1299, PROVIDER, USER, ORIGIN])
        resolutions = resolver.resolve(elem)
        assert len(resolutions) == 1
        resolution = resolutions[0]
        assert resolution.provider_asn == PROVIDER
        assert resolution.detection is DetectionMethod.ON_PATH
        assert resolution.user_asn == USER
        assert resolution.as_distance == 1

    def test_on_path_with_prepending(self, resolver):
        elem = _elem([f"{PROVIDER}:666"], [1299, PROVIDER, PROVIDER, USER, USER, ORIGIN])
        resolution = resolver.resolve(elem)[0]
        assert resolution.user_asn == USER
        assert resolution.as_distance == 1

    def test_bundled_detection_when_provider_absent(self, resolver):
        elem = _elem([f"{PROVIDER}:666"], [7018, USER, ORIGIN])
        resolution = resolver.resolve(elem)[0]
        assert resolution.detection is DetectionMethod.BUNDLED
        assert resolution.provider_asn == PROVIDER
        assert resolution.user_asn == ORIGIN
        assert resolution.as_distance is None

    def test_bundling_can_be_disabled(self):
        resolver = ProviderResolver(_dictionary(), _peeringdb(), enable_bundling=False)
        elem = _elem([f"{PROVIDER}:666"], [7018, USER, ORIGIN])
        assert resolver.resolve(elem) == []

    def test_ambiguous_community_requires_path_confirmation(self, resolver):
        # 0:666 is shared by PROVIDER and OTHER_PROVIDER.
        on_path = _elem(["0:666"], [1299, OTHER_PROVIDER, ORIGIN])
        resolutions = resolver.resolve(on_path)
        assert [r.provider_asn for r in resolutions] == [OTHER_PROVIDER]
        off_path = _elem(["0:666"], [1299, 7018, ORIGIN])
        assert resolver.resolve(off_path) == []

    def test_multiple_communities_yield_multiple_providers(self, resolver):
        elem = _elem(
            [f"{PROVIDER}:666", "0:666"],
            [1299, OTHER_PROVIDER, PROVIDER, USER, ORIGIN],
        )
        providers = {r.provider_asn for r in resolver.resolve(elem)}
        assert providers == {PROVIDER, OTHER_PROVIDER}

    def test_regular_announcement_yields_nothing(self, resolver):
        elem = _elem([f"{PROVIDER}:100"], [PROVIDER, ORIGIN])
        assert resolver.resolve(elem) == []

    def test_withdrawal_yields_nothing(self, resolver):
        elem = StreamElem(
            timestamp=1.0,
            elem_type=ElemType.WITHDRAWAL,
            project="ris",
            collector="rrc00",
            peer_ip="10.0.0.1",
            peer_as=1299,
            prefix=Prefix.from_string("203.0.113.9/32"),
        )
        assert resolver.resolve(elem) == []


class TestIxpResolution:
    def test_peer_ip_in_ixp_lan(self, resolver):
        elem = _elem(
            ["65535:666"], [USER], peer_ip="185.7.0.100", peer_as=USER
        )
        resolution = resolver.resolve(elem)[0]
        assert resolution.ixp_name == "DE-CIX-SIM"
        assert resolution.detection is DetectionMethod.IXP_PEER_IP
        assert resolution.user_asn == USER
        assert resolution.as_distance == 0

    def test_route_server_asn_on_path(self, resolver):
        elem = _elem(["65535:666"], [64502, 59000, USER], peer_ip="10.9.9.9", peer_as=64502)
        resolution = resolver.resolve(elem)[0]
        assert resolution.detection is DetectionMethod.IXP_ROUTE_SERVER
        assert resolution.ixp_name == "DE-CIX-SIM"
        assert resolution.user_asn == USER

    def test_unconfirmed_ixp_community_dropped(self, resolver):
        # Neither the route server nor the peering LAN is involved.
        elem = _elem(["65535:666"], [7018, USER], peer_ip="10.8.8.8", peer_as=7018)
        assert resolver.resolve(elem) == []

    def test_rib_elems_are_resolved_like_announcements(self, resolver):
        elem = _elem(
            ["65535:666"], [USER], peer_ip="185.7.0.100", peer_as=USER,
            elem_type=ElemType.RIB,
        )
        assert resolver.resolve(elem)


class TestDeduplication:
    def test_on_path_preferred_over_bundled_for_same_provider(self, resolver):
        # Global and regional community of the same provider: one resolution.
        dictionary = _dictionary()
        dictionary.add(
            CommunityEntry(Community(PROVIDER, 667), PROVIDER, CommunitySource.IRR)
        )
        resolver = ProviderResolver(dictionary, _peeringdb())
        elem = _elem(
            [f"{PROVIDER}:666", f"{PROVIDER}:667"], [1299, PROVIDER, USER, ORIGIN]
        )
        resolutions = resolver.resolve(elem)
        assert len(resolutions) == 1
        assert resolutions[0].detection is DetectionMethod.ON_PATH


class TestRouteMemo:
    """Each distinct tagged route is resolved once per resolver."""

    def test_untagged_elems_add_no_memo_entry(self, resolver):
        assert resolver.resolve(_elem(["1299:100"], [1299, USER, ORIGIN])) == []
        assert resolver._routes == {}

    def test_mutating_a_result_leaves_the_next_one_unchanged(self, resolver):
        elem = _elem([f"{PROVIDER}:666"], [1299, PROVIDER, USER, ORIGIN])
        first = resolver.resolve(elem)
        expected = list(first)
        first.clear()
        assert resolver.resolve(elem) == expected
        assert expected

    def test_rebinding_the_dictionary_clears_the_memo(self, resolver):
        elem = _elem([f"{PROVIDER}:666"], [1299, PROVIDER, USER, ORIGIN])
        assert resolver.resolve(elem)
        other = Community(OTHER_PROVIDER, 666)
        resolver.dictionary = BlackholeDictionary(
            [CommunityEntry(other, OTHER_PROVIDER, CommunitySource.IRR)]
        )
        assert resolver.resolve(elem) == []
        assert resolver._routes == {}

    def test_flipping_bundling_clears_the_memo(self, resolver):
        # Provider off the path: only community bundling attributes it.
        elem = _elem([f"{PROVIDER}:666"], [1299, USER, ORIGIN])
        assert resolver.resolve(elem)[0].detection is DetectionMethod.BUNDLED
        resolver.enable_bundling = False
        assert resolver.resolve(elem) == []
        resolver.enable_bundling = True
        assert resolver.resolve(elem)[0].detection is DetectionMethod.BUNDLED

    def test_repeated_routes_are_resolved_once(self, monkeypatch):
        calls = []
        original = ProviderResolver._resolve_community

        def counting(self, elem, community, entries):
            calls.append(community)
            return original(self, elem, community, entries)

        monkeypatch.setattr(ProviderResolver, "_resolve_community", counting)
        routes = [
            ([f"{PROVIDER}:666"], [1299, PROVIDER, USER, ORIGIN], "10.0.0.1"),
            ([f"{PROVIDER}:666"], [1299, USER, ORIGIN], "10.0.0.1"),
            (["65535:666"], [USER], "185.7.0.100"),
        ]
        engine = BlackholingInferenceEngine(_dictionary(), _peeringdb())
        announcements = 0
        for round_index in range(4):
            for communities, path, peer_ip in routes:
                elem = dataclasses.replace(
                    _elem(communities, path, peer_ip=peer_ip),
                    timestamp=100.0 + 10 * round_index,
                    # Routable: the cleaner drops the fixture's TEST-NET prefix.
                    prefix=Prefix.from_string("80.81.9.9/32"),
                )
                engine.process(elem)
                announcements += 1
        assert engine.stats.tagged_announcements == announcements
        assert len(calls) <= len(routes) < announcements

    @pytest.mark.parametrize("enable_bundling", [True, False])
    def test_memoised_resolutions_equal_a_fresh_resolver(
        self, small_dataset, study_result, enable_bundling
    ):
        dictionary = study_result.dictionary
        peeringdb = small_dataset.topology.peeringdb
        engine = BlackholingInferenceEngine(
            dictionary, peeringdb=peeringdb, enable_bundling=enable_bundling
        )
        stream = small_dataset.bgp_stream()
        engine.run(stream)
        tagged = [
            elem
            for elem in stream.elems()
            if (elem.is_announcement or elem.is_rib)
            and dictionary.matched_communities(elem.communities)
        ]
        assert 0 < len(engine.resolver._routes) < len(tagged)
        for elem in tagged:
            fresh = ProviderResolver(dictionary, peeringdb, enable_bundling)
            assert engine.resolver.resolve(elem) == fresh.resolve(elem)
