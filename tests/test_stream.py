"""Tests for the BGPStream-like layer: elems, sources, filters, merger."""

from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib
from repro.mrt.writer import write_rib, write_updates
from repro.stream.filters import (
    CollectorFilter,
    CommunityFilter,
    PrefixLengthFilter,
    TimeWindowFilter,
    compose_filters,
)
from repro.stream.merger import BgpStream, merge_sources
from repro.stream.record import ElemType, StreamElem
from repro.stream.source import CollectorSource, MrtSource


def _update(ts, prefix="203.0.113.7/32", collector="rrc00", peer_as=64500, communities=()):
    return BgpUpdate.build(
        timestamp=ts,
        collector=collector,
        peer_ip="10.0.0.1",
        peer_as=peer_as,
        prefix=prefix,
        as_path=[peer_as, 64999],
        communities=list(communities),
    )


class TestStreamElem:
    def test_from_announcement(self):
        elem = StreamElem.from_message(_update(5.0, communities=["64999:666"]), "ris")
        assert elem.is_announcement
        assert elem.project == "ris"
        assert elem.origin_as == 64999
        assert elem.peer_key == ("rrc00", "10.0.0.1")

    def test_from_withdrawal(self):
        withdrawal = BgpWithdrawal.build(6.0, "rrc00", "10.0.0.1", 64500, "203.0.113.0/24")
        elem = StreamElem.from_message(withdrawal, "ris")
        assert elem.is_withdrawal
        assert not elem.communities

    def test_rib_elem_type(self):
        elem = StreamElem.from_message(_update(0.0), "ris", elem_type=ElemType.RIB)
        assert elem.is_rib

    def test_to_message_roundtrip(self):
        original = _update(7.0, communities=["64999:666"])
        elem = StreamElem.from_message(original, "ris")
        back = elem.to_message()
        assert isinstance(back, BgpUpdate)
        assert back.prefix == original.prefix
        assert back.attributes.communities == original.attributes.communities


class TestSources:
    def test_collector_source_orders_updates(self):
        source = CollectorSource(
            "ris", "rrc00", updates=[_update(5.0), _update(1.0, prefix="203.0.113.9/32")]
        )
        stream = list(source.update_stream())
        assert [e.timestamp for e in stream] == [1.0, 5.0]
        assert len(source) == 2

    def test_collector_source_rib_first(self):
        rib = Rib("rrc00")
        rib.apply(_update(0.0, prefix="198.51.100.0/24"))
        source = CollectorSource("ris", "rrc00", rib=rib, updates=[_update(3.0)])
        elems = list(source.all_elems())
        assert elems[0].is_rib
        assert elems[1].is_announcement

    def test_mrt_source_roundtrip(self):
        rib = Rib("rrc00")
        rib.apply(_update(0.0, prefix="198.51.100.0/24"))
        source = MrtSource(
            "ris",
            "rrc00",
            rib_bytes=write_rib(rib),
            update_bytes=write_updates([_update(3.0)]),
        )
        elems = list(source.all_elems())
        assert len(elems) == 2
        assert elems[0].is_rib and elems[1].is_announcement


class TestFilters:
    def test_time_window(self):
        keep = TimeWindowFilter(start=10.0, end=20.0)
        assert keep(StreamElem.from_message(_update(15.0), "ris"))
        assert not keep(StreamElem.from_message(_update(25.0), "ris"))
        assert keep(StreamElem.from_message(_update(0.0), "ris", elem_type=ElemType.RIB))

    def test_collector_filter(self):
        keep = CollectorFilter(projects={"ris"}, collectors={"rrc00"})
        assert keep(StreamElem.from_message(_update(1.0), "ris"))
        assert not keep(StreamElem.from_message(_update(1.0), "pch"))
        assert not keep(StreamElem.from_message(_update(1.0, collector="rrc11"), "ris"))

    def test_prefix_length_filter(self):
        host_only = PrefixLengthFilter(min_length=25, max_length=32)
        assert host_only(StreamElem.from_message(_update(1.0), "ris"))
        assert not host_only(
            StreamElem.from_message(_update(1.0, prefix="203.0.113.0/24"), "ris")
        )

    def test_community_filter(self):
        keep = CommunityFilter(["64999:666"])
        tagged = StreamElem.from_message(_update(1.0, communities=["64999:666"]), "ris")
        plain = StreamElem.from_message(_update(1.0), "ris")
        withdrawal = StreamElem.from_message(
            BgpWithdrawal.build(2.0, "rrc00", "10.0.0.1", 1, "203.0.113.7/32"), "ris"
        )
        assert keep(tagged)
        assert not keep(plain)
        assert keep(withdrawal)

    def test_compose(self):
        combined = compose_filters(
            TimeWindowFilter(0.0, 10.0), PrefixLengthFilter(min_length=32)
        )
        assert combined(StreamElem.from_message(_update(5.0), "ris"))
        assert not combined(StreamElem.from_message(_update(11.0), "ris"))


class TestMerger:
    def _sources(self):
        left = CollectorSource("ris", "rrc00", updates=[_update(1.0), _update(5.0)])
        right = CollectorSource(
            "pch", "pch-ix", updates=[_update(2.0, collector="pch-ix"), _update(4.0, collector="pch-ix")]
        )
        return [left, right]

    def test_merge_orders_by_time(self):
        merged = [spec[7]() for spec in merge_sources(self._sources())]
        assert [e.timestamp for e in merged] == [1.0, 2.0, 4.0, 5.0]

    def test_stream_yields_rib_then_updates(self):
        rib = Rib("rrc00")
        rib.apply(_update(0.0, prefix="198.51.100.0/24"))
        sources = [CollectorSource("ris", "rrc00", rib=rib, updates=[_update(3.0)])]
        stream = BgpStream(sources)
        elems = list(stream)
        assert elems[0].is_rib and elems[-1].is_announcement
        assert stream.projects() == {"ris"}

    def test_stream_filters_apply(self):
        stream = BgpStream(self._sources(), filters=[CollectorFilter(projects={"pch"})])
        assert {e.project for e in stream} == {"pch"}
