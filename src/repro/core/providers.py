"""Provider and user resolution for blackhole-tagged announcements.

Given one announcement whose communities intersect the blackhole dictionary,
:class:`ProviderResolver` determines, per matched community, which
blackholing provider(s) the request targets and which AS is the blackholing
user, applying the checks of Section 4.2:

* **Ambiguous communities** (one value shared by several ISP providers, e.g.
  ``0:666``): keep only candidate providers whose ASN appears on the AS
  path; otherwise the update is not considered further for that value.
* **IXP communities** (RFC 7999 ``65535:666`` or an IXP-specific value):
  confirm that the IXP was actually traversed -- either its route-server ASN
  appears on the AS path (the user is then the hop before it) or the
  message's peer IP lies inside the IXP's peering LAN per PeeringDB (the
  user is then the peer AS).
* **Single-provider communities**: if the provider is on the
  (prepending-free) AS path the user is the AS before it and the AS distance
  from the collector is recorded (Figure 7(c)); if it is not on the path the
  request is still counted thanks to community bundling, attributed to the
  origin AS as user.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.community import Community, LargeCommunity
from repro.core.events import DetectionMethod
from repro.dictionary.model import BlackholeDictionary, CommunityEntry
from repro.stream.record import StreamElem
from repro.topology.peeringdb import PeeringDbDataset

__all__ = ["ProviderResolver", "ResolvedProvider"]


@dataclass(frozen=True, slots=True)
class ResolvedProvider:
    """One (provider, user) resolution for one matched community.

    Slotted: the resolver builds one per matched community per tagged elem
    on the stream hot path.
    """

    provider_key: str
    provider_asn: int | None
    ixp_name: str | None
    user_asn: int | None
    community: Community | LargeCommunity
    detection: DetectionMethod
    as_distance: int | None


class ProviderResolver:
    """Resolution logic shared by the inference engine.

    Two memos, both owned by the resolver instance (each pass builds fresh
    engines, so neither outlives one pass):

    * peer IP -> IXP peering LAN: a stream has few distinct peers, so each
      peer address is looked up in PeeringDB once per resolver.  PeeringDB
      is therefore read as fixed for the resolver's life.
    * route -> resolutions: the answer depends only on the elem's
      communities, AS path, peer IP and peer AS, and re-announcements
      repeat the same route, so each distinct tagged route is resolved
      once.  Only routes with a matched community are stored.  The memo is
      cleared when :attr:`dictionary` is rebound to another object or
      :attr:`enable_bundling` changes.
    """

    def __init__(
        self,
        dictionary: BlackholeDictionary,
        peeringdb: PeeringDbDataset | None = None,
        enable_bundling: bool = True,
    ) -> None:
        self.dictionary = dictionary
        self.peeringdb = peeringdb if peeringdb is not None else PeeringDbDataset()
        self.enable_bundling = enable_bundling
        self._peer_ixps: dict[str, str | None] = {}
        self._routes: dict[tuple, tuple[ResolvedProvider, ...]] = {}
        self._routes_for = (dictionary, enable_bundling)

    # ------------------------------------------------------------------ #
    def resolve(self, elem: StreamElem) -> list[ResolvedProvider]:
        """All provider resolutions for one announcement elem."""
        if not (elem.is_announcement or elem.is_rib):
            return []
        routes_for = (self.dictionary, self.enable_bundling)
        if routes_for != self._routes_for:
            self._routes.clear()
            self._routes_for = routes_for
        key = (elem.communities, elem.as_path, elem.peer_ip, elem.peer_as)
        cached = self._routes.get(key)
        if cached is not None:
            return list(cached)
        matched = self.dictionary.matched_communities(elem.communities)
        if not matched:
            return []
        resolutions: list[ResolvedProvider] = []
        for community in sorted(matched, key=str):
            entries = self.dictionary.lookup(community)
            resolutions.extend(self._resolve_community(elem, community, entries))
        resolved = self._deduplicate(resolutions)
        self._routes[key] = tuple(resolved)
        return resolved

    # ------------------------------------------------------------------ #
    def _resolve_community(
        self,
        elem: StreamElem,
        community: Community | LargeCommunity,
        entries: list[CommunityEntry],
    ) -> list[ResolvedProvider]:
        ixp_entries = [entry for entry in entries if entry.is_ixp]
        isp_entries = [entry for entry in entries if not entry.is_ixp]
        resolutions: list[ResolvedProvider] = []

        if ixp_entries:
            resolution = self._resolve_ixp(elem, community, ixp_entries)
            if resolution is not None:
                resolutions.append(resolution)

        if isp_entries:
            resolutions.extend(self._resolve_isp(elem, community, isp_entries))
        return resolutions

    # ------------------------------------------------------------------ #
    def _resolve_ixp(
        self,
        elem: StreamElem,
        community: Community | LargeCommunity,
        entries: list[CommunityEntry],
    ) -> ResolvedProvider | None:
        """Confirm IXP traversal via route-server ASN or peer IP."""
        path = elem.as_path.without_prepending()
        known_ixps = {entry.ixp_name for entry in entries if entry.ixp_name}

        # (a) route-server ASN on the AS path.
        for index, hop in enumerate(path.hops):
            ixp_name = self.peeringdb.ixp_for_route_server(hop)
            if ixp_name is None:
                continue
            if known_ixps and ixp_name not in known_ixps:
                # The community belongs to other IXPs than the one traversed;
                # without a match we cannot attribute the request.
                continue
            user = path.hop_before(hop)
            entry = self._entry_for_ixp(entries, ixp_name)
            return ResolvedProvider(
                provider_key=ixp_name,
                provider_asn=entry.provider_asn if entry else hop,
                ixp_name=ixp_name,
                user_asn=user,
                community=community,
                detection=DetectionMethod.IXP_ROUTE_SERVER,
                as_distance=index,
            )

        # (b) peer IP inside an IXP peering LAN.
        peer_ip = elem.peer_ip
        try:
            ixp_name = self._peer_ixps[peer_ip]
        except KeyError:
            ixp_name = self._peer_ixps[peer_ip] = self.peeringdb.ixp_for_peer_ip(peer_ip)
        if ixp_name is not None and (not known_ixps or ixp_name in known_ixps):
            entry = self._entry_for_ixp(entries, ixp_name)
            return ResolvedProvider(
                provider_key=ixp_name,
                provider_asn=entry.provider_asn if entry else None,
                ixp_name=ixp_name,
                user_asn=elem.peer_as,
                community=community,
                detection=DetectionMethod.IXP_PEER_IP,
                as_distance=0,
            )
        return None

    @staticmethod
    def _entry_for_ixp(
        entries: list[CommunityEntry], ixp_name: str
    ) -> CommunityEntry | None:
        for entry in entries:
            if entry.ixp_name == ixp_name:
                return entry
        return None

    # ------------------------------------------------------------------ #
    def _resolve_isp(
        self,
        elem: StreamElem,
        community: Community | LargeCommunity,
        entries: list[CommunityEntry],
    ) -> list[ResolvedProvider]:
        path = elem.as_path.without_prepending()
        candidates = sorted({entry.provider_asn for entry in entries})
        ambiguous = len(candidates) > 1

        resolutions: list[ResolvedProvider] = []
        on_path = [asn for asn in candidates if asn in path.hops]

        if ambiguous:
            # Shared community: only candidates confirmed by the AS path count.
            for provider_asn in on_path:
                resolutions.append(
                    self._on_path_resolution(path, provider_asn, community)
                )
            return resolutions

        provider_asn = candidates[0]
        if provider_asn in path.hops:
            resolutions.append(self._on_path_resolution(path, provider_asn, community))
        elif self.enable_bundling:
            # Bundled communities: the provider did not propagate the route,
            # but another neighbour did; attribute the request to the origin.
            resolutions.append(
                ResolvedProvider(
                    provider_key=f"AS{provider_asn}",
                    provider_asn=provider_asn,
                    ixp_name=None,
                    user_asn=elem.origin_as,
                    community=community,
                    detection=DetectionMethod.BUNDLED,
                    as_distance=None,
                )
            )
        return resolutions

    @staticmethod
    def _on_path_resolution(path, provider_asn, community) -> ResolvedProvider:
        distance = path.as_distance_from_collector(provider_asn)
        user = path.hop_before(provider_asn)
        return ResolvedProvider(
            provider_key=f"AS{provider_asn}",
            provider_asn=provider_asn,
            ixp_name=None,
            user_asn=user,
            community=community,
            detection=DetectionMethod.ON_PATH,
            as_distance=distance,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _deduplicate(resolutions: list[ResolvedProvider]) -> list[ResolvedProvider]:
        """Keep one resolution per provider (several communities may map to
        the same provider, e.g. global + regional variants)."""
        seen: dict[str, ResolvedProvider] = {}
        for resolution in resolutions:
            existing = seen.get(resolution.provider_key)
            if existing is None:
                seen[resolution.provider_key] = resolution
                continue
            # Prefer on-path/IXP-confirmed resolutions over bundled ones.
            if (
                existing.detection is DetectionMethod.BUNDLED
                and resolution.detection is not DetectionMethod.BUNDLED
            ):
                seen[resolution.provider_key] = resolution
        return list(seen.values())
