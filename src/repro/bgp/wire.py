"""BGP UPDATE wire-format codec.

Archived BGP data (the MRT dumps the paper parses through BGPStream and the
custom PCH/CDN parsers) stores raw BGP UPDATE messages.  To exercise the same
code path, the simulator can serialise every generated update into genuine
BGP wire format and the stream layer can decode it back, so the inference
engine never "cheats" by looking at simulator-internal objects.

The codec implements RFC 4271 UPDATE messages with:

* 4-byte AS numbers in AS_PATH (RFC 6793 style, as BGPStream normalises);
* COMMUNITIES (RFC 1997), LARGE_COMMUNITIES (RFC 8092) and
  EXTENDED_COMMUNITIES (RFC 4360) attributes;
* IPv4 NLRI/withdrawals in the classic fields and IPv6 via
  MP_REACH_NLRI/MP_UNREACH_NLRI (RFC 4760).

Decoding has one attribute decoder, :func:`decode_attributes`, over a bare
path-attribute blob; :func:`decode_update` parses the UPDATE header and
classic NLRI in place (:func:`split_update`) and delegates to it, and the
MRT reader calls it for BGP4MP records and TABLE_DUMP_V2 RIB entries alike.
The decoder works on plain ints and returns immutable values, so the MRT
reader decodes each distinct attribute blob once per archive scan and
shares the result between rows.  Malformed bytes raise :class:`WireError`
naming the field at fault.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.bgp.attributes import (
    AsPath,
    AttributeFlag,
    AttributeType,
    Origin,
    PathAttributes,
)
from repro.bgp.community import (
    Community,
    CommunitySet,
    ExtendedCommunity,
    LargeCommunity,
)
from repro.netutils.prefixes import Prefix, addr_to_int, int_to_addr

__all__ = [
    "AFI_IPV4",
    "AFI_IPV6",
    "DecodedUpdate",
    "WireError",
    "decode_attributes",
    "decode_update",
    "encode_update",
    "split_update",
]

BGP_HEADER_MARKER = b"\xff" * 16
BGP_MSG_UPDATE = 2

#: Address family identifiers (RFC 4760), shared with the MRT codec.
AFI_IPV4 = 1
AFI_IPV6 = 2
_SAFI_UNICAST = 1


class WireError(ValueError):
    """Raised when a BGP message cannot be encoded or decoded."""


# --------------------------------------------------------------------------- #
# Prefix (NLRI) encoding and decoding
# --------------------------------------------------------------------------- #
def _encode_nlri(prefix: Prefix) -> bytes:
    """Encode one prefix in NLRI form: length octet + minimal network bytes."""
    nbytes = (prefix.length + 7) // 8
    network_bytes = prefix.network.to_bytes(prefix.bits // 8, "big")[:nbytes]
    return bytes([prefix.length]) + network_bytes


def _decode_nlri(data: bytes | memoryview, family: int, offset: int, end: int) -> list[Prefix]:
    """Decode the NLRI prefixes in ``data[offset:end]`` (family 4 or 6)."""
    bits = 32 if family == 4 else 128
    prefixes: list[Prefix] = []
    while offset < end:
        length = data[offset]
        if length > bits:
            raise WireError(f"IPv{family} NLRI length {length} exceeds {bits}")
        nbytes = (length + 7) // 8
        offset += 1
        if offset + nbytes > end:
            raise WireError("truncated NLRI prefix bytes")
        # Left-align the prefix bits arithmetically instead of padding a
        # byte copy, so memoryview input decodes without concatenation.
        network = int.from_bytes(data[offset : offset + nbytes], "big") << (
            bits - 8 * nbytes
        )
        offset += nbytes
        prefixes.append(Prefix.make(family, network, length))
    return prefixes


# --------------------------------------------------------------------------- #
# Attribute encoding
# --------------------------------------------------------------------------- #
def _encode_attribute(type_code: int, value: bytes, optional: bool = False) -> bytes:
    flags = AttributeFlag.TRANSITIVE
    if optional:
        flags |= AttributeFlag.OPTIONAL
    if len(value) > 255:
        flags |= AttributeFlag.EXTENDED_LENGTH
        header = struct.pack("!BBH", int(flags), type_code, len(value))
    else:
        header = struct.pack("!BBB", int(flags), type_code, len(value))
    return header + value


def _encode_as_path(as_path: AsPath) -> bytes:
    hops = as_path.hops
    if not hops:
        return b""
    chunks: list[bytes] = []
    # AS_SEQUENCE segments of at most 255 hops each, 4-byte ASNs.
    for start in range(0, len(hops), 255):
        segment = hops[start : start + 255]
        chunks.append(struct.pack("!BB", 2, len(segment)))
        chunks.append(b"".join(struct.pack("!I", asn) for asn in segment))
    return b"".join(chunks)


def _encode_communities(communities: frozenset[Community]) -> bytes:
    return b"".join(
        struct.pack("!I", community.to_int()) for community in sorted(communities)
    )


def _encode_large_communities(communities: frozenset[LargeCommunity]) -> bytes:
    return b"".join(
        struct.pack("!III", c.global_admin, c.local_data_1, c.local_data_2)
        for c in sorted(communities)
    )


def _encode_next_hop_v4(next_hop: str) -> bytes:
    value, family = addr_to_int(next_hop)
    if family != 4:
        raise WireError("classic NEXT_HOP attribute only carries IPv4")
    return struct.pack("!I", value)


# --------------------------------------------------------------------------- #
# Attribute decoding
# --------------------------------------------------------------------------- #
# Plain-int type codes and flags, taken from the enums once: the decoder
# compares them once per attribute, where IntEnum/IntFlag arithmetic costs a
# Python-level call.
_FLAG_EXTENDED_LENGTH = int(AttributeFlag.EXTENDED_LENGTH)
_TYPE_ORIGIN = int(AttributeType.ORIGIN)
_TYPE_AS_PATH = int(AttributeType.AS_PATH)
_TYPE_NEXT_HOP = int(AttributeType.NEXT_HOP)
_TYPE_MED = int(AttributeType.MULTI_EXIT_DISC)
_TYPE_LOCAL_PREF = int(AttributeType.LOCAL_PREF)
_TYPE_COMMUNITIES = int(AttributeType.COMMUNITIES)
_TYPE_MP_REACH = int(AttributeType.MP_REACH_NLRI)
_TYPE_MP_UNREACH = int(AttributeType.MP_UNREACH_NLRI)
_TYPE_EXTENDED_COMMUNITIES = int(AttributeType.EXTENDED_COMMUNITIES)
_TYPE_LARGE_COMMUNITIES = int(AttributeType.LARGE_COMMUNITIES)

#: ORIGIN attribute value -> :class:`Origin`, indexed by the wire octet.
_ORIGINS = tuple(Origin)

_unpack_from = struct.unpack_from


def _u32(blob: bytes | memoryview, offset: int, length: int, name: str) -> int:
    if length != 4:
        raise WireError(f"{name} length {length}, expected 4")
    return _unpack_from("!I", blob, offset)[0]


def _decode_as_path(blob: bytes | memoryview, offset: int, end: int) -> AsPath:
    hops: list[int] = []
    while offset < end:
        if offset + 2 > end:
            raise WireError("truncated AS_PATH segment header")
        segment_type = blob[offset]
        count = blob[offset + 1]
        offset += 2
        if offset + 4 * count > end:
            raise WireError("truncated AS_PATH segment")
        asns = _unpack_from(f"!{count}I", blob, offset)
        offset += 4 * count
        if segment_type == 2:  # AS_SEQUENCE
            hops.extend(asns)
        elif segment_type == 1:  # AS_SET: keep as ordered hops (sorted) for determinism
            hops.extend(sorted(asns))
        else:
            raise WireError(f"unsupported AS_PATH segment type {segment_type}")
    return AsPath(tuple(hops))


def decode_attributes(
    blob: bytes | memoryview,
    announced: list[Prefix] | None = None,
    withdrawn: list[Prefix] | None = None,
) -> PathAttributes:
    """Decode a bare path-attribute blob.

    This is the one attribute decoder: UPDATE messages, BGP4MP records and
    TABLE_DUMP_V2 RIB entries all go through it.  IPv6 prefixes carried in
    MP_REACH_NLRI / MP_UNREACH_NLRI are appended to ``announced`` /
    ``withdrawn`` when those lists are given (and skipped otherwise).
    Unknown attributes are skipped, as a BGP speaker would; a malformed
    attribute raises :class:`WireError` naming it.
    """
    origin = Origin.IGP
    as_path = AsPath()
    next_hop: str | None = None
    med: int | None = None
    local_pref: int | None = None
    standard: list[Community] = []
    large: list[LargeCommunity] = []
    extended: list[ExtendedCommunity] = []

    offset = 0
    size = len(blob)
    while offset < size:
        if offset + 3 > size:
            raise WireError("truncated attribute header")
        type_code = blob[offset + 1]
        if blob[offset] & _FLAG_EXTENDED_LENGTH:
            if offset + 4 > size:
                raise WireError("truncated extended attribute header")
            length = (blob[offset + 2] << 8) | blob[offset + 3]
            offset += 4
        else:
            length = blob[offset + 2]
            offset += 3
        end = offset + length
        if end > size:
            raise WireError(f"truncated value of attribute type {type_code}")

        if type_code == _TYPE_AS_PATH:
            as_path = _decode_as_path(blob, offset, end)
        elif type_code == _TYPE_COMMUNITIES:
            if length % 4:
                raise WireError("COMMUNITIES length not a multiple of 4")
            standard.extend(
                Community(value >> 16, value & 0xFFFF)
                for value in _unpack_from(f"!{length // 4}I", blob, offset)
            )
        elif type_code == _TYPE_ORIGIN:
            if length != 1:
                raise WireError(f"ORIGIN length {length}, expected 1")
            if blob[offset] >= len(_ORIGINS):
                raise WireError(f"ORIGIN value {blob[offset]} is not 0, 1 or 2")
            origin = _ORIGINS[blob[offset]]
        elif type_code == _TYPE_NEXT_HOP:
            next_hop = int_to_addr(_u32(blob, offset, length, "NEXT_HOP"), 4)
        elif type_code == _TYPE_MED:
            med = _u32(blob, offset, length, "MULTI_EXIT_DISC")
        elif type_code == _TYPE_LOCAL_PREF:
            local_pref = _u32(blob, offset, length, "LOCAL_PREF")
        elif type_code == _TYPE_LARGE_COMMUNITIES:
            if length % 12:
                raise WireError("LARGE_COMMUNITIES length not a multiple of 12")
            fields = _unpack_from(f"!{length // 4}I", blob, offset)
            large.extend(
                LargeCommunity(*fields[i : i + 3]) for i in range(0, len(fields), 3)
            )
        elif type_code == _TYPE_EXTENDED_COMMUNITIES:
            if length % 8:
                raise WireError("EXTENDED_COMMUNITIES length not a multiple of 8")
            extended.extend(
                ExtendedCommunity.from_bytes(blob[start : start + 8])
                for start in range(offset, end, 8)
            )
        elif type_code == _TYPE_MP_REACH:
            if length < 5:
                raise WireError("truncated MP_REACH_NLRI header")
            afi, safi, nh_len = _unpack_from("!HBB", blob, offset)
            nlri_start = offset + 4 + nh_len + 1  # skip the reserved octet
            if nlri_start > end:
                raise WireError(f"MP_REACH_NLRI next-hop length {nh_len} overruns")
            if afi == AFI_IPV6 and safi == _SAFI_UNICAST:
                if nh_len >= 16:
                    next_hop = int_to_addr(
                        int.from_bytes(blob[offset + 4 : offset + 20], "big"), 6
                    )
                if announced is not None:
                    announced.extend(_decode_nlri(blob, 6, nlri_start, end))
        elif type_code == _TYPE_MP_UNREACH:
            if length < 3:
                raise WireError("truncated MP_UNREACH_NLRI header")
            afi, safi = _unpack_from("!HB", blob, offset)
            if afi == AFI_IPV6 and safi == _SAFI_UNICAST and withdrawn is not None:
                withdrawn.extend(_decode_nlri(blob, 6, offset + 3, end))
        offset = end

    return PathAttributes(
        origin=origin,
        as_path=as_path,
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
        communities=CommunitySet(standard, large, extended),
    )


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
@dataclass
class DecodedUpdate:
    """The result of decoding one BGP UPDATE message."""

    announced: list[Prefix] = field(default_factory=list)
    withdrawn: list[Prefix] = field(default_factory=list)
    attributes: PathAttributes = field(default_factory=PathAttributes)


def encode_update(
    announced: list[Prefix] | None = None,
    withdrawn: list[Prefix] | None = None,
    attributes: PathAttributes | None = None,
) -> bytes:
    """Encode one BGP UPDATE message (header included).

    IPv4 prefixes go into the classic withdrawn/NLRI fields; IPv6 prefixes
    are encoded through MP_REACH_NLRI / MP_UNREACH_NLRI attributes.
    """
    announced = announced or []
    withdrawn = withdrawn or []
    attributes = attributes or PathAttributes()

    announced_v4 = [p for p in announced if p.family == 4]
    announced_v6 = [p for p in announced if p.family == 6]
    withdrawn_v4 = [p for p in withdrawn if p.family == 4]
    withdrawn_v6 = [p for p in withdrawn if p.family == 6]

    attr_chunks: list[bytes] = []
    if announced:
        attr_chunks.append(
            _encode_attribute(
                AttributeType.ORIGIN, bytes([int(attributes.origin)])
            )
        )
        attr_chunks.append(
            _encode_attribute(AttributeType.AS_PATH, _encode_as_path(attributes.as_path))
        )
        if announced_v4:
            next_hop = attributes.next_hop or "0.0.0.0"
            attr_chunks.append(
                _encode_attribute(AttributeType.NEXT_HOP, _encode_next_hop_v4(next_hop))
            )
    if attributes.med is not None:
        attr_chunks.append(
            _encode_attribute(
                AttributeType.MULTI_EXIT_DISC,
                struct.pack("!I", attributes.med),
                optional=True,
            )
        )
    if attributes.local_pref is not None:
        attr_chunks.append(
            _encode_attribute(
                AttributeType.LOCAL_PREF, struct.pack("!I", attributes.local_pref)
            )
        )
    communities = attributes.communities
    if communities.standard:
        attr_chunks.append(
            _encode_attribute(
                AttributeType.COMMUNITIES,
                _encode_communities(communities.standard),
                optional=True,
            )
        )
    if communities.large:
        attr_chunks.append(
            _encode_attribute(
                AttributeType.LARGE_COMMUNITIES,
                _encode_large_communities(communities.large),
                optional=True,
            )
        )
    if communities.extended:
        attr_chunks.append(
            _encode_attribute(
                AttributeType.EXTENDED_COMMUNITIES,
                b"".join(c.to_bytes() for c in sorted(communities.extended)),
                optional=True,
            )
        )
    if announced_v6:
        next_hop = attributes.next_hop or "::"
        nh_value, nh_family = addr_to_int(next_hop)
        if nh_family != 6:
            nh_bytes = b"\x00" * 16
        else:
            nh_bytes = nh_value.to_bytes(16, "big")
        mp_reach = (
            struct.pack("!HBB", AFI_IPV6, _SAFI_UNICAST, len(nh_bytes))
            + nh_bytes
            + b"\x00"  # reserved
            + b"".join(_encode_nlri(p) for p in announced_v6)
        )
        attr_chunks.append(
            _encode_attribute(AttributeType.MP_REACH_NLRI, mp_reach, optional=True)
        )
    if withdrawn_v6:
        mp_unreach = struct.pack("!HB", AFI_IPV6, _SAFI_UNICAST) + b"".join(
            _encode_nlri(p) for p in withdrawn_v6
        )
        attr_chunks.append(
            _encode_attribute(AttributeType.MP_UNREACH_NLRI, mp_unreach, optional=True)
        )

    withdrawn_bytes = b"".join(_encode_nlri(p) for p in withdrawn_v4)
    nlri_bytes = b"".join(_encode_nlri(p) for p in announced_v4)
    attrs_bytes = b"".join(attr_chunks)

    body = (
        struct.pack("!H", len(withdrawn_bytes))
        + withdrawn_bytes
        + struct.pack("!H", len(attrs_bytes))
        + attrs_bytes
        + nlri_bytes
    )
    total_length = 19 + len(body)
    if total_length > 4096:
        raise WireError(f"UPDATE message too large ({total_length} bytes)")
    header = BGP_HEADER_MARKER + struct.pack("!HB", total_length, BGP_MSG_UPDATE)
    return header + body


def split_update(
    data: bytes | memoryview,
) -> tuple[list[Prefix], bytes | memoryview, list[Prefix]]:
    """Parse an UPDATE's header and classic NLRI fields in place.

    Returns ``(withdrawn, attribute blob, announced)``: the IPv4 prefixes
    of the withdrawn-routes and NLRI fields, and the raw path-attribute
    bytes as a window of ``data``.  IPv6 prefixes travel inside the blob
    (MP_REACH_NLRI / MP_UNREACH_NLRI); :func:`decode_attributes` adds them.
    """
    size = len(data)
    if size < 23:
        raise WireError("BGP message shorter than UPDATE header")
    if data[:16] != BGP_HEADER_MARKER:
        raise WireError("bad BGP marker")
    total_length, msg_type, withdrawn_len = _unpack_from("!HBH", data, 16)
    if msg_type != BGP_MSG_UPDATE:
        raise WireError(f"not an UPDATE message (type {msg_type})")
    if total_length != size:
        raise WireError(f"BGP message length field {total_length} != {size} bytes")
    attrs_start = 21 + withdrawn_len
    if attrs_start + 2 > size:
        raise WireError("truncated withdrawn routes field")
    attrs_len = _unpack_from("!H", data, attrs_start)[0]
    attrs_start += 2
    nlri_start = attrs_start + attrs_len
    if nlri_start > size:
        raise WireError("truncated path attributes")
    return (
        _decode_nlri(data, 4, 21, attrs_start - 2),
        data[attrs_start:nlri_start],
        _decode_nlri(data, 4, nlri_start, size),
    )


def decode_update(data: bytes | memoryview) -> DecodedUpdate:
    """Decode one BGP UPDATE message (header included)."""
    withdrawn, blob, announced = split_update(data)
    attributes = decode_attributes(blob, announced, withdrawn)
    return DecodedUpdate(announced, withdrawn, attributes)
