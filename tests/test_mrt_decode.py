"""Tests for MRT attribute decoding: per-scan memos, the prefix filter that
runs before decoding, full round trips, and typed errors on bad bytes."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.analysis.pipeline import StudyPipeline
from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.community import Community, CommunitySet, ExtendedCommunity, LargeCommunity
from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib
from repro.bgp.wire import WireError, encode_update
from repro.mrt import reader as mrt_reader
from repro.mrt.reader import MrtError, MrtReader
from repro.mrt.writer import write_rib, write_updates
from repro.netutils.prefixes import Prefix
from repro.stream.record import StreamElem
from repro.stream.source import MrtSource

_ATTRIBUTES = [
    PathAttributes(
        as_path=AsPath((64500, 64501)),
        next_hop="10.0.0.9",
        communities=CommunitySet([Community(64501, 666)]),
    ),
    PathAttributes(
        origin=Origin.INCOMPLETE,
        as_path=AsPath((64502, 64502, 64503)),
        next_hop="10.0.0.10",
        med=7,
        local_pref=200,
        communities=CommunitySet(
            [Community(64503, 100)],
            [LargeCommunity(64503, 666, 1)],
            [ExtendedCommunity(0x00, 0x02, 99)],
        ),
    ),
    PathAttributes(origin=Origin.EGP, as_path=AsPath((64504,)), next_hop="10.0.0.11"),
]


def _update(ts, prefix, attributes, peer_ip="10.0.0.1", peer_as=64500) -> BgpUpdate:
    return BgpUpdate(ts, "rrc00", peer_ip, peer_as, Prefix.from_string(prefix), attributes)


def _rib(prefixes: int = 4) -> Rib:
    """A RIB of IPv4 routes from two peers over three attribute sets."""
    rib = Rib("rrc00")
    for index in range(prefixes):
        for peer, peer_as in (("10.0.0.1", 64500), ("10.0.0.2", 64502)):
            attributes = _ATTRIBUTES[(index + peer_as) % len(_ATTRIBUTES)]
            rib.apply(_update(1000.0, f"203.0.{index}.0/24", attributes, peer, peer_as))
    return rib


def _updates() -> list:
    return [
        _update(2000.0, "203.0.113.7/32", _ATTRIBUTES[0]),
        _update(2001.0, "203.0.113.8/32", _ATTRIBUTES[0]),
        BgpWithdrawal(2002.0, "rrc00", "10.0.0.1", 64500, Prefix.from_string("203.0.113.7/32")),
        _update(2003.0, "198.51.100.0/24", _ATTRIBUTES[1], "10.0.0.2", 64502),
        BgpWithdrawal(2004.0, "rrc00", "10.0.0.2", 64502, Prefix.from_string("198.51.100.0/24")),
    ]


def _mixed_family_archives() -> tuple[bytes, bytes]:
    """A RIB and an update archive with IPv4 and IPv6 peers and prefixes."""
    rib = _rib(2)
    v6 = dataclasses.replace(_ATTRIBUTES[1], next_hop="2001:db8::ffff")
    rib.apply(_update(1000.0, "2001:db8::/32", v6, "2001:db8::1", 64510))
    updates = _updates() + [
        _update(2005.0, "2001:db8:1::/48", v6, "2001:db8::1", 64510),
        BgpWithdrawal(2006.0, "rrc00", "2001:db8::1", 64510, Prefix.from_string("2001:db8:1::/48")),
    ]
    return write_rib(rib), write_updates(updates)


@pytest.fixture
def decode_calls(monkeypatch):
    """Count the reader's calls into the attribute decoder."""
    calls = []
    original = mrt_reader.decode_attributes

    def counting(blob, *args):
        calls.append(bytes(blob))
        return original(blob, *args)

    monkeypatch.setattr(mrt_reader, "decode_attributes", counting)
    return calls


# --------------------------------------------------------------------------- #
# Per-scan memos
# --------------------------------------------------------------------------- #
class TestAttributeMemo:
    def test_identical_rib_blobs_share_one_decode(self, decode_calls):
        messages = list(MrtReader().messages(write_rib(_rib())))
        assert len(messages) == 8
        assert len(decode_calls) == len(set(decode_calls)) == len(_ATTRIBUTES)
        by_value: dict = {}
        for message in messages:
            by_value.setdefault(message.attributes, []).append(message.attributes)
        assert len(by_value) == len(_ATTRIBUTES)
        for shared in by_value.values():
            assert all(attributes is shared[0] for attributes in shared)

    def test_identical_update_blobs_share_one_decode(self, decode_calls):
        messages = list(MrtReader().messages(write_updates(_updates())))
        assert len(messages) == 5
        # Two attribute sets plus the empty blob of the withdrawals.
        assert len(decode_calls) == len(set(decode_calls)) == 3
        assert messages[0].attributes is messages[1].attributes

    def test_row_specs_share_the_memo_path(self, decode_calls):
        specs = list(MrtReader().row_specs(write_rib(_rib()), "ris", rib=True))
        assert len(specs) == 8
        assert len(decode_calls) == len(_ATTRIBUTES)

    def test_memo_lives_for_one_reader(self, decode_calls):
        data = write_rib(_rib())
        list(MrtReader().messages(data))
        list(MrtReader().messages(data))
        assert len(decode_calls) == 2 * len(_ATTRIBUTES)

    def test_peer_addresses_are_formatted_once(self):
        reader = MrtReader()
        messages = list(reader.messages(write_updates(_updates())))
        assert {message.peer_ip for message in messages} == {"10.0.0.1", "10.0.0.2"}
        assert messages[0].peer_ip is messages[2].peer_ip


# --------------------------------------------------------------------------- #
# Prefix filter before decoding
# --------------------------------------------------------------------------- #
class TestPrefixFilter:
    def test_reject_all_decodes_each_update_blob_once(self, decode_calls):
        reject = lambda prefix: False
        rib_bytes, update_bytes = write_rib(_rib()), write_updates(_updates())
        # Two attribute sets plus the empty blob of the withdrawals.
        update_blobs = 3
        scans = [
            (lambda: MrtReader().messages(rib_bytes, reject), 0),
            (lambda: MrtReader().messages(update_bytes, reject), update_blobs),
            (lambda: MrtReader().row_specs(update_bytes, "ris", prefix_filter=reject), update_blobs),
            (
                lambda: MrtSource(
                    "ris", "rrc00", rib_bytes=rib_bytes, update_bytes=update_bytes
                ).all_elems(reject),
                update_blobs,
            ),
        ]
        for scan, decodes in scans:
            decode_calls.clear()
            assert list(scan()) == []
            # A rejected RIB record is skipped whole; every BGP4MP blob is
            # still decoded, once per distinct blob.
            assert len(decode_calls) == len(set(decode_calls)) == decodes

    def test_filter_does_not_hide_a_malformed_blob(self):
        withdrawal = BgpWithdrawal(
            2002.0, "rrc00", "10.0.0.1", 64500, Prefix.from_string("203.0.113.7/32")
        )
        # A withdrawal-only UPDATE whose attribute blob carries ORIGIN 9.
        bgp = encode_update(withdrawn=[withdrawal.prefix])
        bad = bytearray(bgp[:-2] + (4).to_bytes(2, "big") + b"\x40\x01\x01\x09")
        bad[16:18] = len(bad).to_bytes(2, "big")
        data = bytearray(write_updates([withdrawal]))[: -len(bgp)] + bad
        data[8:12] = (len(data) - 12).to_bytes(4, "big")
        for prefix_filter in (None, lambda prefix: True, lambda prefix: False):
            with pytest.raises(WireError, match="ORIGIN value 9"):
                list(MrtReader().messages(bytes(data), prefix_filter))

    def test_filter_sees_prefixes_carried_in_mp_attributes(self):
        rib_bytes, update_bytes = _mixed_family_archives()
        only_v6 = lambda prefix: prefix.family == 6
        for data in (rib_bytes, update_bytes):
            everything = list(MrtReader().messages(data))
            filtered = list(MrtReader().messages(data, only_v6))
            assert filtered == [m for m in everything if m.prefix.family == 6]
            assert filtered

    def test_filtered_messages_equal_unfiltered_then_filtered(self):
        rib_bytes, update_bytes = _mixed_family_archives()
        keep = lambda prefix: prefix.length >= 32
        for data in (rib_bytes, update_bytes):
            everything = list(MrtReader().messages(data))
            assert list(MrtReader().messages(data, keep)) == [
                m for m in everything if keep(m.prefix)
            ]

    def test_sharded_study_over_mrt_sources_matches_serial(self, small_dataset):
        dataset = _as_mrt(small_dataset)
        serial = StudyPipeline(dataset, workers=1).run()
        sharded = StudyPipeline(dataset, workers=4, backend="process").run()
        assert set(serial.observations) == set(sharded.observations)
        assert len(serial.observations) == len(sharded.observations) > 0
        # The MRT-encoded collectors yield the in-memory study's observations.
        key = lambda o: (o.prefix, o.project, o.collector, o.peer_ip, o.provider_key, o.community)
        memory = StudyPipeline(small_dataset).result().observations
        assert sorted(map(key, serial.observations)) == sorted(map(key, memory))


def _as_mrt(dataset):
    sources = [
        MrtSource(
            source.project,
            source.collector,
            rib_bytes=write_rib(dataset.ribs[source.collector])
            if source.collector in dataset.ribs
            else None,
            update_bytes=write_updates(elem.to_message() for elem in source.update_stream()),
        )
        for source in dataset.sources
    ]
    return dataclasses.replace(dataset, sources=sources)


# --------------------------------------------------------------------------- #
# Table 1 over MRT sources
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_mrt_dataset(small_dataset):
    return _as_mrt(small_dataset)


def _table1(dataset):
    return StudyPipeline(dataset).result().analysis("table1")


class TestTable1:
    def test_table1_over_mrt_sources_matches_in_memory(self, small_dataset, small_mrt_dataset):
        memory = _table1(small_dataset)
        mrt = _table1(small_mrt_dataset)
        assert mrt.rows == memory.rows
        assert mrt.meta == memory.meta
        assert len(memory.rows) == 5

    def test_table1_builds_no_row_objects(self, small_dataset, small_mrt_dataset, monkeypatch):
        expected = _table1(small_dataset)

        def forbidden(*args, **kwargs):
            raise AssertionError("Table 1 built a row object")

        monkeypatch.setattr(StreamElem, "from_message", forbidden)
        monkeypatch.setattr(MrtReader, "messages", forbidden)
        for dataset in (small_dataset, small_mrt_dataset):
            result = _table1(dataset)
            assert result.rows == expected.rows
            assert result.meta == expected.meta

    def test_reader_rows_match_messages(self):
        rib_bytes, update_bytes = _mixed_family_archives()
        for data in (rib_bytes, update_bytes):
            rows = list(MrtReader().rows(data))
            messages = list(MrtReader().messages(data))
            assert [row[:4] for row in rows] == [
                (m.timestamp, m.peer_ip, m.peer_as, m.prefix) for m in messages
            ]
            assert [row[4] is None for row in rows] == [
                isinstance(m, BgpWithdrawal) for m in messages
            ]


# --------------------------------------------------------------------------- #
# Full round trip
# --------------------------------------------------------------------------- #
def _enrich(message, index: int):
    """Give a message every attribute the codec carries, varied by index."""
    if isinstance(message, BgpWithdrawal):
        return message
    attributes = dataclasses.replace(
        message.attributes,
        origin=Origin(index % 3),
        med=index % 5 or None,
        local_pref=100 + index % 3,
    )
    return dataclasses.replace(message, attributes=attributes)


def _untimed(message):
    return dataclasses.replace(message, timestamp=0.0)


class TestRoundTrip:
    def test_every_collector_round_trips_with_full_attributes(self, small_dataset):
        checked = 0
        for source in small_dataset.sources:
            updates = [
                _enrich(elem.to_message(), index)
                for index, elem in enumerate(source.update_stream())
            ]
            decoded = list(MrtReader(source.collector).messages(write_updates(updates)))
            assert [_untimed(m) for m in decoded] == [_untimed(m) for m in updates]
            assert [m.timestamp for m in decoded] == pytest.approx(
                [m.timestamp for m in updates], abs=1e-6
            )
            checked += len(decoded)

            rib = small_dataset.ribs.get(source.collector)
            if rib is None:
                continue
            enriched = Rib(rib.collector)
            for index, message in enumerate(rib.dump()):
                enriched.apply(_enrich(message, index))
            expected = sorted(
                (dataclasses.replace(m, timestamp=float(int(m.timestamp))) for m in enriched.dump()),
                key=lambda m: (m.prefix, m.peer_ip, m.peer_as),
            )
            decoded = list(MrtReader(rib.collector).messages(write_rib(enriched)))
            assert decoded == expected
            checked += len(decoded)
        assert checked > 10_000


# --------------------------------------------------------------------------- #
# Typed errors on malformed bytes
# --------------------------------------------------------------------------- #
def _decode_everything(data: bytes) -> None:
    list(MrtReader().messages(data))
    list(MrtReader().row_specs(data, "ris"))


def _record_start(data: bytes, record_index: int) -> int:
    offset = 0
    for _ in range(record_index):
        offset += 12 + int.from_bytes(data[offset + 8 : offset + 12], "big")
    return offset


class TestMalformedInput:
    def test_peer_index_past_the_table(self):
        data = bytearray(write_rib(_rib(1)))
        entry = _record_start(data, 1) + 12 + 4 + 1 + 3 + 2  # seq, length, 3 prefix bytes, count
        data[entry : entry + 2] = (7).to_bytes(2, "big")
        with pytest.raises(MrtError, match="peer index 7"):
            _decode_everything(bytes(data))

    def test_ipv4_prefix_length_over_32(self):
        data = bytearray(write_rib(_rib(1)))
        data[_record_start(data, 1) + 12 + 4] = 33
        with pytest.raises(MrtError, match="prefix length 33"):
            _decode_everything(bytes(data))

    def test_update_nlri_length_over_32(self):
        data = bytearray(write_updates(_updates()[:1]))
        # The NLRI is the last field: one length octet plus four prefix bytes.
        data[-5] = 40
        with pytest.raises(WireError, match="NLRI length 40"):
            _decode_everything(bytes(data))

    def test_bad_origin_value(self):
        data = bytearray(write_updates(_updates()[:1]))
        origin = bytes(data).index(b"\x40\x01\x01\x00") + 3  # flags, ORIGIN, len 1, IGP
        data[origin] = 9
        with pytest.raises(WireError, match="ORIGIN value 9"):
            _decode_everything(bytes(data))

    def test_truncated_peer_table(self):
        data = write_rib(_rib(1))
        header = bytearray(data[:12])
        length = int.from_bytes(header[8:12], "big") - 3
        header[8:12] = length.to_bytes(4, "big")
        with pytest.raises(MrtError, match="PEER_INDEX_TABLE"):
            _decode_everything(bytes(header) + data[12 : 12 + length])

    @pytest.mark.parametrize("kind", ["rib", "updates"])
    def test_truncations_and_byte_flips_raise_only_typed_errors(self, kind):
        outcomes = {"decoded": 0, "MrtError": 0, "WireError": 0}
        for variant in _fuzz_corpus(kind):
            try:
                _decode_everything(variant)
            except (MrtError, WireError) as exc:
                outcomes[type(exc).__name__] += 1
            else:
                outcomes["decoded"] += 1
        # Each outcome occurs, so the corpus reaches every layer.
        assert all(outcomes.values()), outcomes

    @pytest.mark.parametrize("kind", ["rib", "updates"])
    def test_sharded_scans_fail_where_the_serial_scan_fails(self, kind):
        # Two shards split the prefixes by their last network bit.
        def shard(parity):
            return lambda prefix: (prefix.network >> (prefix.bits - prefix.length)) % 2 == parity

        for variant in _fuzz_corpus(kind):
            serial = _messages_or_error(variant, None)
            shards = [_messages_or_error(variant, shard(parity)) for parity in (0, 1)]
            if isinstance(serial, Exception):
                assert any(isinstance(result, Exception) for result in shards), serial
            else:
                assert Counter(shards[0]) + Counter(shards[1]) == Counter(serial)


def _messages_or_error(data: bytes, prefix_filter) -> list | Exception:
    try:
        return list(MrtReader().messages(data, prefix_filter))
    except (MrtError, WireError) as exc:
        return exc


def _fuzz_corpus(kind: str) -> list[bytes]:
    """Every truncation and 2,000 seeded 1-byte flips of a mixed archive."""
    rib_bytes, update_bytes = _mixed_family_archives()
    data = rib_bytes if kind == "rib" else update_bytes
    rng = random.Random(f"mrt-fuzz-{kind}")
    variants = [data[:cut] for cut in range(len(data))]
    for _ in range(2000):
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        variants.append(bytes(flipped))
    return variants
