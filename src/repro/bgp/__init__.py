"""BGP protocol substrate.

This package models the parts of BGP that the paper's methodology touches:

* :mod:`repro.bgp.community` -- RFC 1997 standard communities, RFC 4360
  extended communities, and RFC 8092 large communities, including the
  well-known RFC 7999 BLACKHOLE community.
* :mod:`repro.bgp.attributes` -- path attributes (ORIGIN, AS_PATH, NEXT_HOP,
  COMMUNITIES, LARGE_COMMUNITIES, ...), with AS-path prepending helpers
  and the per-scenario :class:`AttributeTable` that shares equal values.
* :mod:`repro.bgp.message` -- the update/withdraw message model used by the
  simulator, the stream layer, and the inference engine.
* :mod:`repro.bgp.wire` -- a real BGP UPDATE wire-format encoder/decoder so
  that collector feeds can round-trip through bytes exactly as archived MRT
  data would.
* :mod:`repro.bgp.rib` -- per-peer Routing Information Bases and table dumps.
"""

from repro.bgp.attributes import AsPath, AttributeTable, Origin, PathAttributes
from repro.bgp.community import (
    BLACKHOLE_COMMUNITY,
    Community,
    CommunitySet,
    ExtendedCommunity,
    LargeCommunity,
    NO_ADVERTISE,
    NO_EXPORT,
    parse_community,
)
from repro.bgp.message import BgpMessage, BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib, RibEntry, RouteTable
from repro.bgp.wire import decode_update, encode_update

__all__ = [
    "AsPath",
    "AttributeTable",
    "BLACKHOLE_COMMUNITY",
    "BgpMessage",
    "BgpUpdate",
    "BgpWithdrawal",
    "Community",
    "CommunitySet",
    "ExtendedCommunity",
    "LargeCommunity",
    "NO_ADVERTISE",
    "NO_EXPORT",
    "Origin",
    "PathAttributes",
    "Rib",
    "RibEntry",
    "RouteTable",
    "decode_update",
    "encode_update",
    "parse_community",
]
