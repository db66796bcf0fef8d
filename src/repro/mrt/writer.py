"""MRT binary writer.

Serialises simulated collector data into MRT bytes:

* :func:`write_updates` -- a stream of :class:`~repro.bgp.message.BgpUpdate`
  / :class:`~repro.bgp.message.BgpWithdrawal` objects into BGP4MP_ET
  (microsecond-timestamped) records carrying real BGP UPDATE messages.
* :func:`write_rib` -- a collector :class:`~repro.bgp.rib.Rib` into a
  TABLE_DUMP_V2 snapshot (PEER_INDEX_TABLE followed by RIB_IPV4_UNICAST /
  RIB_IPV6_UNICAST entries).
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.bgp.message import BgpMessage, BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib
from repro.bgp.wire import AFI_IPV4, AFI_IPV6, encode_update
from repro.mrt.constants import (
    PEER_TYPE_AS4,
    PEER_TYPE_IPV6,
    MrtSubtype,
    MrtType,
)
from repro.netutils.prefixes import addr_to_int

__all__ = ["MrtWriter", "write_rib", "write_updates"]

def _encode_header(
    timestamp: float, mrt_type: int, subtype: int, payload: bytes, extended: bool
) -> bytes:
    """Encode the MRT common header (plus microseconds for _ET types)."""
    seconds = int(timestamp)
    if extended:
        microseconds = int(round((timestamp - seconds) * 1_000_000))
        body = struct.pack("!I", microseconds) + payload
    else:
        body = payload
    return struct.pack("!IHHI", seconds, mrt_type, subtype, len(body)) + body


def _encode_ip(address: str, family: int) -> bytes:
    value, fam = addr_to_int(address)
    if fam != family:
        raise ValueError(f"address {address} is not IPv{family}")
    return value.to_bytes(4 if family == 4 else 16, "big")


class MrtWriter:
    """Incremental MRT writer accumulating records into a byte buffer."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    # ------------------------------------------------------------------ #
    def add_bgp4mp_message(self, message: BgpMessage, local_as: int = 0) -> None:
        """Append one BGP4MP_ET record for an update or withdrawal."""
        family = 4 if ":" not in message.peer_ip else 6
        afi = AFI_IPV4 if family == 4 else AFI_IPV6
        local_ip = "0.0.0.0" if family == 4 else "::"

        if isinstance(message, BgpUpdate):
            bgp_bytes = encode_update(
                announced=[message.prefix], attributes=message.attributes
            )
        elif isinstance(message, BgpWithdrawal):
            bgp_bytes = encode_update(withdrawn=[message.prefix])
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported message type {type(message)!r}")

        payload = (
            struct.pack("!IIHH", message.peer_as, local_as, 0, afi)
            + _encode_ip(message.peer_ip, family)
            + _encode_ip(local_ip, family)
            + bgp_bytes
        )
        self._chunks.append(
            _encode_header(
                message.timestamp,
                MrtType.BGP4MP_ET,
                MrtSubtype.BGP4MP_MESSAGE_AS4,
                payload,
                extended=True,
            )
        )

    def add_peer_index_table(
        self, collector_id: str, peers: list[tuple[str, int]], view_name: str = ""
    ) -> None:
        """Append the PEER_INDEX_TABLE record for a TABLE_DUMP_V2 snapshot."""
        collector_bgp_id, fam = addr_to_int(collector_id)
        if fam != 4:
            raise ValueError("collector BGP ID must be an IPv4 address")
        name_bytes = view_name.encode()
        payload = struct.pack("!I", collector_bgp_id)
        payload += struct.pack("!H", len(name_bytes)) + name_bytes
        payload += struct.pack("!H", len(peers))
        for peer_ip, peer_as in peers:
            family = 4 if ":" not in peer_ip else 6
            peer_type = PEER_TYPE_AS4 | (PEER_TYPE_IPV6 if family == 6 else 0)
            payload += struct.pack("!B", peer_type)
            payload += b"\x00" * 4  # peer BGP ID (unused in the simulator)
            payload += _encode_ip(peer_ip, family)
            payload += struct.pack("!I", peer_as)
        self._chunks.append(
            _encode_header(
                0.0,
                MrtType.TABLE_DUMP_V2,
                MrtSubtype.PEER_INDEX_TABLE,
                payload,
                extended=False,
            )
        )

    def add_rib_entry(
        self,
        sequence: int,
        prefix_updates: list[tuple[int, BgpUpdate]],
        timestamp: float = 0.0,
    ) -> None:
        """Append one RIB_IPVx_UNICAST record.

        ``prefix_updates`` pairs each contributing peer's index (into the
        PEER_INDEX_TABLE) with the announcement holding its attributes; all
        entries must share the same prefix.
        """
        if not prefix_updates:
            raise ValueError("RIB entry needs at least one route")
        prefix = prefix_updates[0][1].prefix
        subtype = (
            MrtSubtype.RIB_IPV4_UNICAST
            if prefix.family == 4
            else MrtSubtype.RIB_IPV6_UNICAST
        )
        nbytes = (prefix.length + 7) // 8
        prefix_bytes = bytes([prefix.length]) + prefix.network.to_bytes(
            prefix.bits // 8, "big"
        )[:nbytes]
        payload = struct.pack("!I", sequence) + prefix_bytes
        payload += struct.pack("!H", len(prefix_updates))
        for peer_index, update in prefix_updates:
            if update.prefix != prefix:
                raise ValueError("all RIB entry routes must share one prefix")
            # TABLE_DUMP_V2 stores bare path attributes (no BGP header); we
            # reuse the UPDATE encoder and strip header + empty NLRI fields.
            encoded = encode_update(announced=[update.prefix], attributes=update.attributes)
            # Skip 19-byte header + 2-byte withdrawn length (0) to reach the
            # attributes length field.
            attrs_len = struct.unpack("!H", encoded[21:23])[0]
            attrs = encoded[23 : 23 + attrs_len]
            payload += struct.pack(
                "!HIH", peer_index, int(update.timestamp), len(attrs)
            )
            payload += attrs
        self._chunks.append(
            _encode_header(
                timestamp, MrtType.TABLE_DUMP_V2, subtype, payload, extended=False
            )
        )

    # ------------------------------------------------------------------ #
    def getvalue(self) -> bytes:
        """The accumulated MRT byte stream."""
        return b"".join(self._chunks)

    def write_to(self, path: str) -> None:
        """Write the accumulated records to a file."""
        with open(path, "wb") as handle:
            handle.write(self.getvalue())


def write_updates(messages: Iterable[BgpMessage]) -> bytes:
    """Serialise a message stream into BGP4MP_ET MRT bytes."""
    writer = MrtWriter()
    for message in messages:
        writer.add_bgp4mp_message(message)
    return writer.getvalue()


def write_rib(rib: Rib, timestamp: float = 0.0, collector_id: str = "192.0.2.1") -> bytes:
    """Serialise a collector RIB into a TABLE_DUMP_V2 MRT snapshot."""
    writer = MrtWriter()
    peers = sorted(rib.peers())
    peer_index = {peer: index for index, peer in enumerate(peers)}
    writer.add_peer_index_table(collector_id, peers)

    by_prefix: dict = {}
    for entry in rib:
        by_prefix.setdefault(entry.prefix, []).append(entry)
    for sequence, prefix in enumerate(sorted(by_prefix)):
        entries = by_prefix[prefix]
        prefix_updates = [
            (
                peer_index[(entry.peer_ip, entry.peer_as)],
                entry.to_update(rib.collector),
            )
            for entry in sorted(entries, key=lambda e: (e.peer_ip, e.peer_as))
        ]
        writer.add_rib_entry(sequence, prefix_updates, timestamp=timestamp)
    return writer.getvalue()
