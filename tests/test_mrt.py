"""Tests for the MRT writer and reader."""

import pytest

from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib
from repro.mrt.constants import MrtSubtype, MrtType
from repro.mrt.reader import MrtError, MrtReader, read_messages, read_records
from repro.mrt.writer import MrtWriter, write_rib, write_updates
from repro.netutils.prefixes import Prefix


def _update(prefix="203.0.113.7/32", ts=1500000000.25, peer_ip="10.0.0.1", peer_as=64500):
    return BgpUpdate.build(
        timestamp=ts,
        collector="rrc00",
        peer_ip=peer_ip,
        peer_as=peer_as,
        prefix=prefix,
        as_path=[peer_as, 64501],
        communities=["64501:666"],
        next_hop="10.0.0.9",
    )


class TestBgp4mp:
    def test_update_roundtrip(self):
        original = _update()
        data = write_updates([original])
        messages = list(read_messages(data, collector="rrc00"))
        assert len(messages) == 1
        decoded = messages[0]
        assert isinstance(decoded, BgpUpdate)
        assert decoded.prefix == original.prefix
        assert decoded.peer_as == original.peer_as
        assert decoded.peer_ip == original.peer_ip
        assert decoded.as_path.hops == original.as_path.hops
        assert decoded.communities == original.communities
        assert decoded.timestamp == pytest.approx(original.timestamp, abs=1e-5)

    def test_withdrawal_roundtrip(self):
        withdrawal = BgpWithdrawal.build(1500000000.0, "rrc00", "10.0.0.1", 64500, "203.0.113.0/24")
        messages = list(read_messages(write_updates([withdrawal])))
        assert len(messages) == 1
        assert isinstance(messages[0], BgpWithdrawal)
        assert messages[0].prefix == withdrawal.prefix

    def test_mixed_stream_preserves_order(self):
        messages = [
            _update(ts=100.0),
            BgpWithdrawal.build(101.0, "rrc00", "10.0.0.1", 64500, "203.0.113.7/32"),
            _update(prefix="203.0.113.9/32", ts=102.0),
        ]
        decoded = list(read_messages(write_updates(messages)))
        assert [m.timestamp for m in decoded] == [100.0, 101.0, 102.0]
        assert isinstance(decoded[1], BgpWithdrawal)

    def test_record_header_fields(self):
        data = write_updates([_update()])
        records = list(read_records(data))
        assert len(records) == 1
        assert records[0].mrt_type == MrtType.BGP4MP_ET
        assert records[0].subtype == MrtSubtype.BGP4MP_MESSAGE_AS4

    def test_truncated_stream_raises(self):
        data = write_updates([_update()])
        with pytest.raises(MrtError):
            list(read_records(data[:-5]))


class TestTableDumpV2:
    def _rib(self) -> Rib:
        rib = Rib("rrc00")
        rib.apply(_update(prefix="203.0.113.0/24", peer_ip="10.0.0.1", peer_as=64500))
        rib.apply(_update(prefix="203.0.113.0/24", peer_ip="10.0.0.2", peer_as=64502))
        rib.apply(_update(prefix="198.51.100.7/32", peer_ip="10.0.0.1", peer_as=64500))
        return rib

    def test_rib_roundtrip(self):
        rib = self._rib()
        data = write_rib(rib, timestamp=1500000000.0)
        messages = list(read_messages(data, collector="rrc00"))
        assert len(messages) == len(rib)
        prefixes = {m.prefix for m in messages}
        assert prefixes == rib.prefixes()
        peer_pairs = {(m.peer_ip, m.peer_as) for m in messages}
        assert peer_pairs == rib.peers()
        # Communities survive the TABLE_DUMP_V2 attribute encoding.
        assert all(len(m.attributes.communities) == 1 for m in messages)

    def test_rib_entry_before_peer_index_raises(self):
        rib = self._rib()
        data = write_rib(rib)
        peer_index = next(read_records(data))
        # Drop the PEER_INDEX_TABLE record: its 12-byte header and payload.
        rib_records = data[12 + len(peer_index.payload) :]
        with pytest.raises(MrtError):
            list(MrtReader().messages(rib_records))

    def test_writer_rejects_mixed_prefix_entries(self):
        writer = MrtWriter()
        writer.add_peer_index_table("192.0.2.1", [("10.0.0.1", 64500)])
        updates = [
            (0, _update(prefix="203.0.113.0/24")),
            (0, _update(prefix="198.51.100.0/24")),
        ]
        with pytest.raises(ValueError):
            writer.add_rib_entry(0, updates)

    def test_ipv6_rib_entry(self):
        rib = Rib("rrc00")
        update = BgpUpdate.build(
            timestamp=10.0,
            collector="rrc00",
            peer_ip="10.0.0.1",
            peer_as=64500,
            prefix="2001:db8::1/128",
            as_path=[64500],
            next_hop="2001:db8::ffff",
        )
        rib.apply(update)
        messages = list(read_messages(write_rib(rib)))
        assert messages[0].prefix == Prefix.from_string("2001:db8::1/128")

    def test_write_to_file(self, tmp_path):
        writer = MrtWriter()
        writer.add_bgp4mp_message(_update())
        path = tmp_path / "updates.mrt"
        writer.write_to(str(path))
        assert list(read_messages(path.read_bytes()))
