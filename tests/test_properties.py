"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.bgp.wire import BGP_HEADER_MARKER, decode_attributes, decode_update, encode_update
from repro.core.events import BlackholingObservation, DetectionMethod
from repro.core.grouping import correlate_prefix_events, group_into_periods
from repro.mrt.writer import write_updates
from repro.mrt.reader import read_messages
from repro.netutils.prefixes import Prefix, int_to_addr

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
ipv4_prefixes = st.builds(
    Prefix.make,
    st.just(4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)
ipv6_prefixes = st.builds(
    Prefix.make,
    st.just(6),
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=128),
)
prefixes = st.one_of(ipv4_prefixes, ipv6_prefixes)

communities = st.builds(
    Community,
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)
large_communities = st.builds(
    LargeCommunity,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
as_paths = st.lists(
    st.integers(min_value=1, max_value=2**32 - 1), min_size=0, max_size=12
).map(AsPath.from_hops)


# --------------------------------------------------------------------------- #
# Prefix invariants
# --------------------------------------------------------------------------- #
class TestPrefixProperties:
    @given(prefixes)
    def test_string_roundtrip(self, prefix):
        assert Prefix.from_string(str(prefix)) == prefix

    @given(prefixes)
    def test_prefix_contains_itself_and_its_network_address(self, prefix):
        assert prefix.contains(prefix)
        assert prefix.contains_address(prefix.network_address)

    @given(prefixes)
    def test_supernet_contains_prefix(self, prefix):
        if prefix.length == 0:
            return
        assert prefix.supernet().contains(prefix)

    @given(ipv4_prefixes, st.integers(min_value=0, max_value=2**32 - 1))
    def test_containment_matches_network_masking(self, prefix, value):
        address = int_to_addr(value, 4)
        expected = (value >> (32 - prefix.length)) == (
            prefix.network >> (32 - prefix.length)
        ) if prefix.length else True
        assert prefix.contains_address(address) == expected

    @given(prefixes)
    def test_num_addresses_consistent_with_length(self, prefix):
        assert prefix.num_addresses == 1 << (prefix.bits - prefix.length)


# --------------------------------------------------------------------------- #
# Community invariants
# --------------------------------------------------------------------------- #
class TestCommunityProperties:
    @given(communities)
    def test_int_roundtrip(self, community):
        assert Community.from_int(community.to_int()) == community

    @given(communities)
    def test_string_roundtrip(self, community):
        assert Community.from_string(str(community)) == community

    @given(st.lists(communities, max_size=8), st.lists(large_communities, max_size=4))
    def test_community_set_membership(self, standard, large):
        community_set = CommunitySet(standard, large)
        for community in standard:
            assert community in community_set
        for community in large:
            assert community in community_set
        assert len(community_set) == len(set(standard)) + len(set(large))

    @given(st.lists(communities, max_size=6), st.lists(communities, max_size=6))
    def test_union_is_commutative(self, left, right):
        a = CommunitySet(left)
        b = CommunitySet(right)
        assert a.union(b) == b.union(a)


# --------------------------------------------------------------------------- #
# AS path invariants
# --------------------------------------------------------------------------- #
class TestAsPathProperties:
    @given(as_paths)
    def test_deprepending_is_idempotent(self, path):
        collapsed = path.without_prepending()
        assert collapsed.without_prepending() == collapsed

    @given(as_paths)
    def test_deprepending_preserves_endpoints(self, path):
        collapsed = path.without_prepending()
        assert collapsed.origin_as == path.origin_as
        assert collapsed.peer_as == path.peer_as

    @given(as_paths, st.integers(min_value=1, max_value=2**32 - 1), st.integers(1, 4))
    def test_prepend_then_collapse(self, path, asn, times):
        prepended = path.prepend(asn, times)
        collapsed = prepended.without_prepending()
        if path.peer_as == asn:
            assert collapsed == path.without_prepending()
        else:
            assert collapsed.hops[0] == asn
            assert collapsed.hops[1:] == path.without_prepending().hops


# --------------------------------------------------------------------------- #
# Wire / MRT round trips
# --------------------------------------------------------------------------- #
class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(ipv4_prefixes, min_size=1, max_size=5),
        st.lists(communities, max_size=6),
        st.lists(st.integers(min_value=1, max_value=2**32 - 1), min_size=1, max_size=8),
    )
    def test_update_wire_roundtrip(self, announced, comms, hops):
        attributes = PathAttributes(
            as_path=AsPath.from_hops(hops),
            next_hop="192.0.2.1",
            communities=CommunitySet(comms),
        )
        decoded = decode_update(encode_update(announced=announced, attributes=attributes))
        assert set(decoded.announced) == set(announced)
        assert len(decoded.announced) == len(announced)
        assert decoded.attributes.as_path.hops == tuple(hops)
        assert decoded.attributes.communities.standard == frozenset(comms)

    @settings(max_examples=80, deadline=None)
    @given(
        # One next hop per UPDATE, so the announced prefixes share a family.
        st.one_of(st.lists(ipv4_prefixes, max_size=4), st.lists(ipv6_prefixes, max_size=4)),
        st.lists(prefixes, max_size=4),
        as_paths,
        st.lists(communities, max_size=6),
        st.lists(large_communities, max_size=3),
        st.sampled_from(list(Origin)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    )
    def test_decode_attributes_matches_decode_update(
        self, announced, withdrawn, path, comms, large, origin, med, local_pref
    ):
        attributes = PathAttributes(
            origin=origin,
            as_path=path,
            next_hop="2001:db8::1" if any(p.family == 6 for p in announced) else "192.0.2.1",
            med=med,
            local_pref=local_pref,
            communities=CommunitySet(comms, large),
        )
        data = encode_update(announced=announced, withdrawn=withdrawn, attributes=attributes)
        withdrawn_len = int.from_bytes(data[19:21], "big")
        start = 23 + withdrawn_len
        blob = data[start : start + int.from_bytes(data[start - 2 : start], "big")]
        # The same blob as the only content of an UPDATE: no classic NLRI.
        wrapped = (
            BGP_HEADER_MARKER
            + (23 + len(blob)).to_bytes(2, "big")
            + b"\x02\x00\x00"
            + len(blob).to_bytes(2, "big")
            + blob
        )
        mp_announced: list[Prefix] = []
        mp_withdrawn: list[Prefix] = []
        decoded = decode_update(wrapped)
        assert decode_attributes(blob, mp_announced, mp_withdrawn) == decoded.attributes
        assert mp_announced == decoded.announced
        assert mp_withdrawn == decoded.withdrawn
        assert mp_announced == [p for p in announced if p.family == 6]
        assert mp_withdrawn == [p for p in withdrawn if p.family == 6]
        if announced:
            assert decoded.attributes == attributes

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=2_000_000_000.0, allow_nan=False),
                ipv4_prefixes,
                st.booleans(),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_mrt_roundtrip_preserves_count_and_prefixes(self, items):
        messages = []
        for timestamp, prefix, is_withdrawal in items:
            if is_withdrawal:
                messages.append(
                    BgpWithdrawal.build(timestamp, "c", "10.0.0.1", 64500, prefix)
                )
            else:
                messages.append(
                    BgpUpdate.build(
                        timestamp, "c", "10.0.0.1", 64500, prefix, as_path=[64500]
                    )
                )
        decoded = list(read_messages(write_updates(messages), collector="c"))
        assert len(decoded) == len(messages)
        assert [m.prefix for m in decoded] == [m.prefix for m in messages]
        assert [type(m) for m in decoded] == [type(m) for m in messages]


# --------------------------------------------------------------------------- #
# Grouping invariants
# --------------------------------------------------------------------------- #
observation_strategy = st.builds(
    lambda start, duration, peer, provider: BlackholingObservation(
        prefix=Prefix.from_string("80.99.1.1/32"),
        project="ris",
        collector="rrc00",
        peer_ip=f"10.0.0.{peer}",
        peer_as=peer,
        provider_key=f"AS{provider}",
        provider_asn=provider,
        ixp_name=None,
        user_asn=64500,
        community=Community(provider, 666),
        detection=DetectionMethod.ON_PATH,
        as_distance=1,
        start_time=start,
        end_time=start + duration,
    ),
    st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=50_000.0, allow_nan=False),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=100, max_value=103),
)


class TestGroupingProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(observation_strategy, min_size=1, max_size=25))
    def test_events_cover_all_observations(self, observations):
        events = correlate_prefix_events(observations)
        assert sum(len(event.observations) for event in events) == len(observations)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(observation_strategy, min_size=1, max_size=25))
    def test_event_bounds_contain_member_observations(self, observations):
        for event in correlate_prefix_events(observations):
            for observation in event.observations:
                assert event.start_time <= observation.start_time
                if event.end_time is not None and observation.end_time is not None:
                    assert observation.end_time <= event.end_time

    @settings(max_examples=40, deadline=None)
    @given(st.lists(observation_strategy, min_size=1, max_size=25))
    def test_larger_timeout_never_increases_event_count(self, observations):
        small = group_into_periods(observations, timeout=60.0)
        large = group_into_periods(observations, timeout=3600.0)
        assert len(large) <= len(small)
