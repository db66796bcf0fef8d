"""Looking glasses (Periscope stand-in).

Section 5.2 notes that some blackholing never reaches any BGP collector
(e.g. Cogent's login-gated blackholing of the Pirate Bay prefixes) but can
still be observed by querying a looking glass inside the blackholing
provider.  :class:`LookingGlass` answers show-route queries from one AS's
point of view, including blackholed prefixes held only locally;
:class:`PeriscopeClient` exposes a set of such looking glasses behind one
query interface, like the Periscope system the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.community import Community, LargeCommunity
from repro.netutils.prefixes import Prefix
from repro.routing.propagation import RoutePropagator
from repro.topology.generator import InternetTopology

__all__ = ["LookingGlass", "LookingGlassRoute", "PeriscopeClient"]


@dataclass(frozen=True)
class LookingGlassRoute:
    """One route returned by a looking-glass query."""

    prefix: Prefix
    as_path: tuple[int, ...]
    communities: tuple[Community | LargeCommunity, ...]
    next_hop: str
    blackholed: bool


class LookingGlass:
    """The routing view of one AS, queryable by prefix or community."""

    def __init__(
        self,
        topology: InternetTopology,
        asn: int,
        propagator: RoutePropagator | None = None,
    ) -> None:
        if asn not in topology.graph:
            raise KeyError(f"unknown AS{asn}")
        self.topology = topology
        self.asn = asn
        self.propagator = propagator or RoutePropagator(topology.graph)
        #: Locally-held blackhole routes: prefix -> (user ASN, community).
        self._local_blackholes: dict[Prefix, tuple[int, Community | LargeCommunity]] = {}

    # ------------------------------------------------------------------ #
    def install_blackhole(
        self, prefix: Prefix, user_asn: int, community: Community | LargeCommunity
    ) -> None:
        """Install a blackhole route visible only through this looking glass.

        This models providers whose blackholing is triggered out-of-band (web
        portals) or never exported -- invisible in all BGP datasets.
        """
        self._local_blackholes[prefix] = (user_asn, community)

    def remove_blackhole(self, prefix: Prefix) -> None:
        self._local_blackholes.pop(prefix, None)

    # ------------------------------------------------------------------ #
    def show_route(self, target: str | Prefix) -> list[LookingGlassRoute]:
        """``show route`` for an address or prefix."""
        if isinstance(target, Prefix):
            address = target.address_at(0)
        else:
            address = target
        routes: list[LookingGlassRoute] = []

        for prefix, (user_asn, community) in sorted(self._local_blackholes.items()):
            if prefix.contains_address(address):
                routes.append(
                    LookingGlassRoute(
                        prefix=prefix,
                        as_path=(user_asn,),
                        communities=(community,),
                        next_hop=self._null_interface(),
                        blackholed=True,
                    )
                )

        destination_asn = self._origin_for(address)
        if destination_asn is not None:
            path = self.propagator.path(self.asn, destination_asn)
            if path is not None:
                block = self.topology.get_as(destination_asn).address_block
                if block is not None:
                    routes.append(
                        LookingGlassRoute(
                            prefix=block,
                            as_path=path[1:] if len(path) > 1 else path,
                            communities=(),
                            next_hop=block.address_at(1),
                            blackholed=False,
                        )
                    )
        return routes

    def routes_with_community(
        self, community: Community | LargeCommunity
    ) -> list[LookingGlassRoute]:
        """All (locally blackholed) routes carrying a given community."""
        return [
            LookingGlassRoute(
                prefix=prefix,
                as_path=(user_asn,),
                communities=(stored,),
                next_hop=self._null_interface(),
                blackholed=True,
            )
            for prefix, (user_asn, stored) in sorted(self._local_blackholes.items())
            if stored == community
        ]

    # ------------------------------------------------------------------ #
    def _origin_for(self, address: str) -> int | None:
        for asn, autonomous_system in self.topology.ases.items():
            block = autonomous_system.address_block
            if block is not None and block.contains_address(address):
                return asn
        return None

    def _null_interface(self) -> str:
        block = self.topology.get_as(self.asn).address_block
        return block.address_at(66) if block is not None else "192.0.2.66"


class PeriscopeClient:
    """A set of looking glasses behind one query interface."""

    def __init__(self, topology: InternetTopology, asns: list[int] | None = None) -> None:
        self.topology = topology
        propagator = RoutePropagator(topology.graph)
        if asns is None:
            # By default expose looking glasses inside the transit networks,
            # which is where real public looking glasses live.
            asns = [a.asn for a in topology.ases.values() if a.tier in (1, 2)]
        self.glasses: dict[int, LookingGlass] = {
            asn: LookingGlass(topology, asn, propagator) for asn in sorted(asns)
        }

    def __len__(self) -> int:
        return len(self.glasses)

    def glass(self, asn: int) -> LookingGlass:
        return self.glasses[asn]

    def query_all(self, target: str | Prefix) -> dict[int, list[LookingGlassRoute]]:
        """Run ``show route`` on every looking glass."""
        return {asn: glass.show_route(target) for asn, glass in self.glasses.items()}

    def find_blackholed(self, target: str | Prefix) -> dict[int, list[LookingGlassRoute]]:
        """Looking glasses reporting a blackhole route for the target."""
        results: dict[int, list[LookingGlassRoute]] = {}
        for asn, routes in self.query_all(target).items():
            blackholed = [route for route in routes if route.blackholed]
            if blackholed:
                results[asn] = blackholed
        return results
