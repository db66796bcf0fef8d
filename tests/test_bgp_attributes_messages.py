"""Tests for AS paths, path attributes and BGP message objects."""

import pickle

import pytest

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.community import Community, CommunitySet
from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.netutils.prefixes import Prefix


class TestAsPath:
    def test_from_string_and_str(self):
        path = AsPath.from_string("3356 1299 64500")
        assert path.hops == (3356, 1299, 64500)
        assert str(path) == "3356 1299 64500"
        assert AsPath.from_string("") == AsPath(())

    def test_origin_and_peer(self):
        path = AsPath.from_hops([3356, 1299, 64500])
        assert path.origin_as == 64500
        assert path.peer_as == 3356
        assert AsPath().origin_as is None

    def test_prepending_removal(self):
        path = AsPath.from_hops([3356, 3356, 1299, 64500, 64500, 64500])
        assert path.without_prepending().hops == (3356, 1299, 64500)

    def test_prepending_removal_is_memoised_by_value(self):
        prepended = AsPath.from_hops([3356, 3356, 1299])
        collapsed = prepended.without_prepending()
        assert prepended.without_prepending() is collapsed
        plain = AsPath.from_hops([3356, 1299])
        assert plain.without_prepending() is plain
        # The memo is invisible to equality, hashing and pickling.
        assert prepended == AsPath.from_hops([3356, 3356, 1299])
        assert hash(plain) == hash(AsPath.from_hops([3356, 1299]))
        restored = pickle.loads(pickle.dumps(plain))
        assert restored == plain and restored.without_prepending() is restored

    def test_prepend(self):
        path = AsPath.from_hops([1299]).prepend(3356, times=3)
        assert path.hops == (3356, 3356, 3356, 1299)
        with pytest.raises(ValueError):
            path.prepend(1, times=0)

    def test_as_distance_from_collector(self):
        path = AsPath.from_hops([100, 100, 200, 300])
        assert path.as_distance_from_collector(100) == 0
        assert path.as_distance_from_collector(200) == 1
        assert path.as_distance_from_collector(300) == 2
        assert path.as_distance_from_collector(999) is None

    def test_hop_before_is_towards_origin(self):
        # The blackholing user is the AS "before" the provider on the path,
        # i.e. the next hop towards the origin.
        path = AsPath.from_hops([100, 200, 300])
        assert path.hop_before(200) == 300
        assert path.hop_before(300) is None
        assert path.hop_before(999) is None

    def test_loop_detection(self):
        assert AsPath.from_hops([1, 2, 1]).has_loop()
        assert not AsPath.from_hops([1, 1, 2]).has_loop()

    def test_unique_hops(self):
        assert AsPath.from_hops([1, 1, 2, 1, 3]).unique_hops() == (1, 2, 3)


class TestPathAttributes:
    def test_defaults(self):
        attributes = PathAttributes()
        assert attributes.origin is Origin.IGP
        assert len(attributes.as_path) == 0
        assert not attributes.communities

    def test_with_helpers_return_new_objects(self):
        attributes = PathAttributes()
        updated = attributes.with_as_path([1, 2]).with_next_hop("10.0.0.1")
        updated = updated.with_communities(CommunitySet([Community(1, 666)]))
        assert updated.as_path.hops == (1, 2)
        assert updated.next_hop == "10.0.0.1"
        assert attributes.next_hop is None

    def test_prepended(self):
        attributes = PathAttributes().with_as_path([2]).prepended(1, 2)
        assert attributes.as_path.hops == (1, 1, 2)


class TestMessages:
    def test_update_build_coerces_types(self):
        update = BgpUpdate.build(
            timestamp=10.0,
            collector="rrc00",
            peer_ip="10.0.0.1",
            peer_as=100,
            prefix="192.0.2.1/32",
            as_path=[100, 200],
            communities=["200:666", Community(100, 100)],
            next_hop="10.0.0.2",
        )
        assert update.prefix == Prefix.from_string("192.0.2.1/32")
        assert update.as_path.hops == (100, 200)
        assert Community(200, 666) in update.communities
        assert update.origin_as == 200
        assert update.is_announcement
        assert not update.is_withdrawal

    def test_withdrawal_build(self):
        withdrawal = BgpWithdrawal.build(5.0, "rrc00", "10.0.0.1", 100, "192.0.2.0/24")
        assert withdrawal.is_withdrawal
        assert withdrawal.prefix.length == 24

    def test_update_replace(self):
        update = BgpUpdate.build(1.0, "c", "10.0.0.1", 1, "192.0.2.1/32")
        moved = update.replace(timestamp=2.0)
        assert moved.timestamp == 2.0
        assert update.timestamp == 1.0
