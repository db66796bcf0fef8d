"""Tests for collector RIBs and per-AS route tables."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib, RouteTable
from repro.netutils.prefixes import Prefix


def _update(prefix: str, peer_ip: str = "10.0.0.1", peer_as: int = 100, ts: float = 1.0):
    return BgpUpdate.build(
        timestamp=ts,
        collector="rrc00",
        peer_ip=peer_ip,
        peer_as=peer_as,
        prefix=prefix,
        as_path=[peer_as, 200],
        next_hop=peer_ip,
    )


class TestRib:
    def test_apply_announcement_and_withdrawal(self):
        rib = Rib("rrc00")
        rib.apply(_update("192.0.2.0/24"))
        assert len(rib) == 1
        rib.apply(
            BgpWithdrawal.build(2.0, "rrc00", "10.0.0.1", 100, "192.0.2.0/24")
        )
        assert len(rib) == 0

    def test_per_peer_entries(self):
        rib = Rib("rrc00")
        rib.apply(_update("192.0.2.0/24", peer_ip="10.0.0.1", peer_as=100))
        rib.apply(_update("192.0.2.0/24", peer_ip="10.0.0.2", peer_as=200))
        assert len(rib) == 2
        assert len(rib.routes_for_prefix(Prefix.from_string("192.0.2.0/24"))) == 2
        assert rib.peers() == {("10.0.0.1", 100), ("10.0.0.2", 200)}

    def test_replacement_keeps_latest(self):
        rib = Rib("rrc00")
        rib.apply(_update("192.0.2.0/24", ts=1.0))
        rib.apply(_update("192.0.2.0/24", ts=5.0))
        entry = rib.get("10.0.0.1", Prefix.from_string("192.0.2.0/24"))
        assert entry is not None and entry.timestamp == 5.0
        assert len(rib) == 1

    def test_withdraw_unknown_is_noop(self):
        rib = Rib("rrc00")
        rib.apply(BgpWithdrawal.build(1.0, "rrc00", "10.0.0.1", 100, "192.0.2.0/24"))
        assert len(rib) == 0

    def test_dump_is_deterministic_and_roundtrips(self):
        rib = Rib("rrc00")
        rib.apply(_update("192.0.2.0/24", peer_ip="10.0.0.2", peer_as=200))
        rib.apply(_update("198.51.100.0/24", peer_ip="10.0.0.1", peer_as=100))
        # Same network at two lengths, and both families, under one peer.
        for prefix in ("2001:db8::/32", "10.0.0.0/16", "10.0.0.0/8", "9.0.0.0/8"):
            rib.apply(_update(prefix, peer_ip="10.0.0.1", peer_as=100))
        dump = rib.dump()
        assert [(u.peer_ip, u.prefix) for u in dump] == sorted(
            (u.peer_ip, u.prefix) for u in dump
        )
        rebuilt = Rib("rrc00")
        rebuilt.apply_all(dump)
        assert rebuilt.prefixes() == rib.prefixes()


class TestRouteTable:
    def test_install_and_lookup_exact(self):
        table = RouteTable(64500)
        attributes = PathAttributes(as_path=AsPath.from_hops([64501]))
        prefix = Prefix.from_string("192.0.2.0/24")
        table.install(prefix, attributes)
        assert table.lookup_exact(prefix) is attributes
        assert prefix in table

    def test_longest_prefix_match(self):
        table = RouteTable(64500)
        table.install(Prefix.from_string("10.0.0.0/8"), PathAttributes())
        specific = PathAttributes(as_path=AsPath.from_hops([1]))
        table.install(Prefix.from_string("10.1.0.0/16"), specific)
        match = table.lookup_longest("10.1.2.3")
        assert match is not None
        assert match[0].length == 16
        assert table.lookup_longest("172.16.0.1") is None

    def test_remove(self):
        table = RouteTable(64500)
        prefix = Prefix.from_string("10.0.0.0/8")
        table.install(prefix, PathAttributes())
        table.remove(prefix)
        assert len(table) == 0
