"""MRT binary reader.

Parses the records produced by :mod:`repro.mrt.writer` (and, for the
supported subset, records produced by real collectors): BGP4MP /
BGP4MP_ET message records and TABLE_DUMP_V2 RIB snapshots.  All ingest
goes through :meth:`MrtReader.row_specs`: decoded rows become lazy row
specs that the stream layer packs into the engines' columnar batches (and
fires for its elem iterators), with no message object per row.  The
high-level :func:`read_messages` generator (and :meth:`MrtReader.messages`)
converts both flavours back into :class:`~repro.bgp.message.BgpUpdate` /
:class:`BgpWithdrawal` objects; nothing in the stream layer takes that
route, so it serves as an independent decoding oracle for the tests.

Malformed input raises :class:`MrtError` (record framing, BGP4MP headers,
the PEER_INDEX_TABLE, RIB entries) or :class:`~repro.bgp.wire.WireError`
(the BGP message and its path attributes), each naming the field at fault.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BgpMessage, BgpUpdate, BgpWithdrawal
from repro.bgp.wire import AFI_IPV4, AFI_IPV6, decode_attributes, split_update
from repro.mrt.constants import (
    PEER_TYPE_AS4,
    PEER_TYPE_IPV6,
    MrtSubtype,
    MrtType,
)
from repro.netutils.prefixes import Prefix, int_to_addr

__all__ = ["MrtError", "MrtReader", "MrtRecord", "read_messages", "read_records"]


class MrtError(ValueError):
    """Raised when an MRT byte stream cannot be parsed."""


@dataclass(frozen=True)
class MrtRecord:
    """One raw MRT record (header fields + payload bytes).

    ``payload`` is a zero-copy ``memoryview`` into the source buffer when
    the record came from :func:`read_records`; the decode paths treat it as
    a read-only byte sequence either way.
    """

    timestamp: float
    mrt_type: int
    subtype: int
    payload: bytes | memoryview


def read_records(data: bytes | memoryview) -> Iterator[MrtRecord]:
    """Iterate the raw MRT records in a byte buffer, copy-free.

    The hot scan never slices record bytes out of ``data``: headers are
    read in place with ``struct.unpack_from`` and payloads are handed out
    as ``memoryview`` windows, so a multi-gigabyte archive is walked
    without duplicating a single record.
    """
    view = data if type(data) is memoryview else memoryview(data)
    size = len(view)
    unpack_from = struct.unpack_from
    offset = 0
    while offset < size:
        if offset + 12 > size:
            raise MrtError("truncated MRT header")
        seconds, mrt_type, subtype, length = unpack_from("!IHHI", view, offset)
        offset += 12
        end = offset + length
        if end > size:
            raise MrtError("truncated MRT payload")
        payload = view[offset:end]
        offset = end
        timestamp = float(seconds)
        if mrt_type == MrtType.BGP4MP_ET:
            if length < 4:
                raise MrtError("truncated BGP4MP_ET microsecond field")
            timestamp += unpack_from("!I", payload)[0] / 1_000_000
            payload = payload[4:]
        yield MrtRecord(timestamp, mrt_type, subtype, payload)


#: Decoded attribute blob: the attributes plus the IPv6 prefixes its
#: MP_REACH_NLRI / MP_UNREACH_NLRI carry.
DecodedAttributes = tuple[PathAttributes, tuple[Prefix, ...], tuple[Prefix, ...]]

#: One decoded route: ``(timestamp, peer_ip, peer_as, prefix, attributes)``,
#: with ``attributes`` None for a withdrawal.
Row = tuple[float, str, int, Prefix, PathAttributes | None]


class MrtReader:
    """Stateful reader converting MRT records into BGP message objects.

    TABLE_DUMP_V2 requires state (the PEER_INDEX_TABLE maps peer indices to
    peer IP/AS pairs), hence the class; BGP4MP records are stateless.

    The reader also memoises decoding for the length of one archive scan:
    each distinct path-attribute blob is decoded once (rows with identical
    blobs share one immutable :class:`PathAttributes`), and each distinct
    raw peer address is formatted once.  The memos are keyed by the raw
    bytes, so they are bounded by the archive, and they live as long as
    the reader -- :class:`~repro.stream.source.MrtSource` builds a new
    reader for every scan.  Malformed bytes raise :class:`MrtError` or
    :class:`~repro.bgp.wire.WireError`.
    """

    def __init__(self, collector: str = "mrt") -> None:
        self.collector = collector
        self._peer_table: list[tuple[str, int]] = []
        self._attribute_memo: dict[bytes, DecodedAttributes] = {}
        self._address_memo: dict[bytes, str] = {}

    # ------------------------------------------------------------------ #
    def messages(
        self, data: bytes | memoryview, prefix_filter=None
    ) -> Iterator[BgpMessage]:
        """Yield BGP messages from an MRT byte buffer.

        With ``prefix_filter``, messages whose prefix fails it are dropped;
        a RIB record whose prefix fails is skipped before its entries are
        decoded.
        """
        collector = self.collector
        for record in read_records(data):
            for timestamp, peer_ip, peer_as, prefix, attributes in self._rows(
                record, prefix_filter
            ):
                if attributes is None:
                    yield BgpWithdrawal(timestamp, collector, peer_ip, peer_as, prefix)
                else:
                    yield BgpUpdate(
                        timestamp, collector, peer_ip, peer_as, prefix, attributes
                    )

    def rows(self, data: bytes | memoryview) -> Iterator[Row]:
        """Yield every route of an MRT buffer as a decoded :data:`Row`.

        The raw fields :meth:`messages` builds its objects from, without
        building them: no ``BgpUpdate`` / ``BgpWithdrawal`` and no prefix
        filter.  A BGP4MP record yields its withdrawals first, as in
        :meth:`messages`.
        """
        for record in read_records(data):
            yield from self._rows(record, None)

    def row_specs(
        self,
        data: bytes | memoryview,
        project: str,
        rib: bool = False,
        prefix_filter=None,
    ):
        """Decode an MRT buffer straight into batch row specs.

        The columnar twin of :meth:`messages` + elem conversion: timestamp,
        prefix, peer and community fields are written directly out of the
        decoded records, and the ``StreamElem`` (and the intermediate
        ``BgpUpdate`` / ``BgpWithdrawal``) is never constructed unless a
        consumer fires the spec's row thunk.  ``rib=True`` types
        announcement-like rows as RIB entries.
        The spec tuples yielded equal :data:`repro.stream.batch.RowSpec`.
        """
        # Imported lazily: repro.stream.source imports this module at top
        # level, so a module-level import here would be circular.
        from repro.bgp.community import CommunitySet
        from repro.stream.batch import TYPE_ANNOUNCEMENT, TYPE_RIB, TYPE_WITHDRAWAL
        from repro.stream.record import ElemType, StreamElem

        announce_code = TYPE_RIB if rib else TYPE_ANNOUNCEMENT
        announce_type = ElemType.RIB if rib else ElemType.ANNOUNCEMENT
        withdrawal = ElemType.WITHDRAWAL
        empty_communities = CommunitySet()
        collector = self.collector
        for record in read_records(data):
            for timestamp, peer_ip, peer_as, prefix, attributes in self._rows(
                record, prefix_filter
            ):
                if attributes is None:
                    yield (
                        timestamp,
                        TYPE_WITHDRAWAL,
                        project,
                        collector,
                        peer_ip,
                        prefix,
                        empty_communities,
                        lambda prefix=prefix, timestamp=timestamp, peer_ip=peer_ip, peer_as=peer_as: StreamElem(
                            timestamp=timestamp,
                            elem_type=withdrawal,
                            project=project,
                            collector=collector,
                            peer_ip=peer_ip,
                            peer_as=peer_as,
                            prefix=prefix,
                        ),
                    )
                else:
                    yield (
                        timestamp,
                        announce_code,
                        project,
                        collector,
                        peer_ip,
                        prefix,
                        attributes.communities,
                        lambda prefix=prefix, timestamp=timestamp, peer_ip=peer_ip, peer_as=peer_as, attributes=attributes: StreamElem(
                            timestamp=timestamp,
                            elem_type=announce_type,
                            project=project,
                            collector=collector,
                            peer_ip=peer_ip,
                            peer_as=peer_as,
                            prefix=prefix,
                            as_path=attributes.as_path,
                            next_hop=attributes.next_hop,
                            communities=attributes.communities,
                        ),
                    )

    # ------------------------------------------------------------------ #
    def _rows(self, record: MrtRecord, prefix_filter) -> Iterable[Row]:
        """The routes of one record whose prefix passes ``prefix_filter``.

        The one record dispatch behind :meth:`messages`, :meth:`rows` and
        :meth:`row_specs`.  Unknown record types yield nothing, mirroring
        tolerant MRT tooling.
        """
        mrt_type = record.mrt_type
        if mrt_type == MrtType.BGP4MP or mrt_type == MrtType.BGP4MP_ET:
            return self._bgp4mp_rows(record, prefix_filter)
        if mrt_type == MrtType.TABLE_DUMP_V2:
            subtype = record.subtype
            if subtype == MrtSubtype.PEER_INDEX_TABLE:
                self._load_peer_index(record.payload)
            elif subtype in (MrtSubtype.RIB_IPV4_UNICAST, MrtSubtype.RIB_IPV6_UNICAST):
                return self._rib_rows(record, prefix_filter)
        return ()

    def _attributes(self, blob: bytes | memoryview) -> DecodedAttributes:
        """Decode an attribute blob, once per distinct blob in this scan."""
        key = bytes(blob)
        decoded = self._attribute_memo.get(key)
        if decoded is None:
            announced: list[Prefix] = []
            withdrawn: list[Prefix] = []
            attributes = decode_attributes(key, announced, withdrawn)
            decoded = (attributes, tuple(announced), tuple(withdrawn))
            self._attribute_memo[key] = decoded
        return decoded

    def _address(self, payload: memoryview, offset: int, length: int, name: str) -> str:
        """Format the raw IPv4/IPv6 address at ``offset``, once per address."""
        end = offset + length
        if end > len(payload):
            raise MrtError(f"truncated {name}")
        key = bytes(payload[offset:end])
        address = self._address_memo.get(key)
        if address is None:
            address = int_to_addr(int.from_bytes(key, "big"), 4 if length == 4 else 6)
            self._address_memo[key] = address
        return address

    def _bgp4mp_rows(self, record: MrtRecord, prefix_filter) -> list[Row]:
        """Parse a BGP4MP(_ET) record into its rows, withdrawals first.

        Subtypes this reader does not handle yield no rows.  Header reads
        are in-place ``unpack_from`` calls over the payload window.  The
        attribute blob is always decoded (once per distinct blob, through
        the scan memo), so a malformed blob raises whatever the filter is;
        ``prefix_filter`` then drops the classic and MP prefixes that fail.
        """
        payload = record.payload
        subtype = record.subtype
        if subtype == MrtSubtype.BGP4MP_MESSAGE_AS4:
            if len(payload) < 12:
                raise MrtError("truncated BGP4MP_MESSAGE_AS4 header")
            peer_as, _local_as, _ifindex, afi = struct.unpack_from("!IIHH", payload)
            offset = 12
        elif subtype == MrtSubtype.BGP4MP_MESSAGE:
            if len(payload) < 8:
                raise MrtError("truncated BGP4MP_MESSAGE header")
            peer_as, _local_as, _ifindex, afi = struct.unpack_from("!HHHH", payload)
            offset = 8
        else:
            return []
        if afi == AFI_IPV4:
            addr_len = 4
        elif afi == AFI_IPV6:
            addr_len = 16
        else:
            raise MrtError(f"BGP4MP address family {afi} is neither IPv4 nor IPv6")
        peer_ip = self._address(payload, offset, addr_len, "BGP4MP peer address")
        offset += 2 * addr_len  # skip local IP too
        withdrawn, blob, announced = split_update(payload[offset:])
        attributes, mp_announced, mp_withdrawn = self._attributes(blob)
        withdrawn += mp_withdrawn
        announced += mp_announced
        if prefix_filter is not None:
            withdrawn = [prefix for prefix in withdrawn if prefix_filter(prefix)]
            announced = [prefix for prefix in announced if prefix_filter(prefix)]
        timestamp = record.timestamp
        rows = [(timestamp, peer_ip, peer_as, prefix, None) for prefix in withdrawn]
        rows += [(timestamp, peer_ip, peer_as, prefix, attributes) for prefix in announced]
        return rows

    def _load_peer_index(self, payload: bytes | memoryview) -> None:
        size = len(payload)
        if size < 8:
            raise MrtError("truncated PEER_INDEX_TABLE header")
        name_len = struct.unpack_from("!H", payload, 4)[0]  # after collector BGP ID
        offset = 6 + name_len
        if offset + 2 > size:
            raise MrtError("truncated PEER_INDEX_TABLE view name")
        peer_count = struct.unpack_from("!H", payload, offset)[0]
        offset += 2
        peers: list[tuple[str, int]] = []
        for _ in range(peer_count):
            if offset >= size:
                raise MrtError(f"truncated PEER_INDEX_TABLE: {len(peers)} of {peer_count} peers")
            peer_type = payload[offset]
            offset += 1 + 4  # type + peer BGP ID
            addr_len = 16 if peer_type & PEER_TYPE_IPV6 else 4
            peer_ip = self._address(payload, offset, addr_len, "PEER_INDEX_TABLE peer address")
            offset += addr_len
            as_len = 4 if peer_type & PEER_TYPE_AS4 else 2
            if offset + as_len > size:
                raise MrtError("truncated PEER_INDEX_TABLE peer AS")
            peer_as = int.from_bytes(payload[offset : offset + as_len], "big")
            offset += as_len
            peers.append((peer_ip, peer_as))
        self._peer_table = peers

    def _rib_rows(self, record: MrtRecord, prefix_filter) -> Iterator[Row]:
        """Parse one RIB record into its rows, in place over the payload.

        A record whose prefix fails ``prefix_filter`` yields nothing, and
        none of its attribute blobs is decoded.
        """
        peers = self._peer_table
        if not peers:
            raise MrtError("RIB entry before PEER_INDEX_TABLE")
        payload = record.payload
        size = len(payload)
        if size < 5:
            raise MrtError("truncated RIB record header")
        family = 4 if record.subtype == MrtSubtype.RIB_IPV4_UNICAST else 6
        bits = 32 if family == 4 else 128
        length = payload[4]  # after the sequence number
        if length > bits:
            raise MrtError(f"RIB record prefix length {length} exceeds {bits}")
        nbytes = (length + 7) // 8
        offset = 5 + nbytes
        if offset + 2 > size:
            raise MrtError("truncated RIB record prefix or entry count")
        # Left-align the prefix bits arithmetically instead of padding a
        # byte copy (memoryview payloads do not concatenate).
        network = int.from_bytes(payload[5:offset], "big") << (bits - 8 * nbytes)
        prefix = Prefix.make(family, network, length)
        if prefix_filter is not None and not prefix_filter(prefix):
            return
        entry_count = struct.unpack_from("!H", payload, offset)[0]
        offset += 2
        unpack_from = struct.unpack_from
        attributes_of = self._attributes
        for _ in range(entry_count):
            if offset + 8 > size:
                raise MrtError("truncated RIB entry header")
            peer_index, originated, attrs_len = unpack_from("!HIH", payload, offset)
            offset += 8
            end = offset + attrs_len
            if end > size:
                raise MrtError("truncated RIB entry attributes")
            if peer_index >= len(peers):
                raise MrtError(
                    f"RIB entry peer index {peer_index} past the "
                    f"PEER_INDEX_TABLE ({len(peers)} peers)"
                )
            peer_ip, peer_as = peers[peer_index]
            attributes = attributes_of(payload[offset:end])[0]
            offset = end
            yield float(originated), peer_ip, peer_as, prefix, attributes


def read_messages(data: bytes, collector: str = "mrt") -> Iterator[BgpMessage]:
    """Convenience wrapper: iterate all BGP messages in an MRT buffer."""
    reader = MrtReader(collector=collector)
    yield from reader.messages(data)
