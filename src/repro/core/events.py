"""Blackholing observation and event value types."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.bgp.community import Community, LargeCommunity
from repro.netutils.prefixes import Prefix

__all__ = ["BlackholingObservation", "DetectionMethod", "EndCause"]


class DetectionMethod(enum.Enum):
    """How the blackholing provider was identified for one observation."""

    ON_PATH = "on-path"                  # provider ASN appears in the AS path
    BUNDLED = "bundled"                  # community present, provider not on the path
    IXP_ROUTE_SERVER = "ixp-route-server"  # route-server ASN appears in the AS path
    IXP_PEER_IP = "ixp-peer-ip"          # peer IP lies in an IXP peering LAN


class EndCause(enum.Enum):
    """Why an observation ended."""

    EXPLICIT_WITHDRAWAL = "explicit-withdrawal"
    IMPLICIT_WITHDRAWAL = "implicit-withdrawal"
    STREAM_END = "stream-end"


@dataclass(frozen=True, slots=True)
class BlackholingObservation:
    """One per-peer blackholing interval for one prefix at one provider.

    Observations are the engine's unit of state: the paper "tracks all
    blackholing events at the granularity of individual BGP peers" and later
    correlates them across peers.  ``provider_key`` is ``"AS<asn>"`` for ISP
    providers and the IXP name for IXP providers, so both kinds can share
    dictionaries and group-bys.  Slotted: hundreds of thousands are alive at
    once on multi-year windows, and the grouping/report layers hammer their
    attributes.
    """

    prefix: Prefix
    project: str
    collector: str
    peer_ip: str
    peer_as: int
    provider_key: str
    provider_asn: int | None
    ixp_name: str | None
    user_asn: int | None
    community: Community | LargeCommunity
    detection: DetectionMethod
    as_distance: int | None
    start_time: float
    end_time: float | None = None
    end_cause: EndCause | None = None
    from_table_dump: bool = False

    # ------------------------------------------------------------------ #
    @property
    def peer_key(self) -> tuple[str, str]:
        return (self.collector, self.peer_ip)

    @property
    def is_active(self) -> bool:
        return self.end_time is None

    @property
    def is_ixp_provider(self) -> bool:
        return self.ixp_name is not None

    @property
    def duration(self) -> float | None:
        """Observation duration in seconds (None while still active)."""
        if self.end_time is None:
            return None
        return max(0.0, self.end_time - self.start_time)

    def ended(self, end_time: float, cause: EndCause) -> "BlackholingObservation":
        """A copy of the observation closed at ``end_time``.

        Spelled out rather than ``dataclasses.replace``: every observation
        is closed once, and the generic copy is several times slower.
        """
        return BlackholingObservation(
            self.prefix,
            self.project,
            self.collector,
            self.peer_ip,
            self.peer_as,
            self.provider_key,
            self.provider_asn,
            self.ixp_name,
            self.user_asn,
            self.community,
            self.detection,
            self.as_distance,
            self.start_time,
            end_time,
            cause,
            self.from_table_dump,
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        state = "active" if self.is_active else f"ended@{self.end_time}"
        return (
            f"{self.prefix} via {self.provider_key} (user AS{self.user_asn}) "
            f"at {self.collector}/{self.peer_ip} [{self.detection.value}, {state}]"
        )
