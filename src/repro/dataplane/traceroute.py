"""Traceroute simulation and the Section 10 active-measurement campaign.

The paper launches traceroutes from ~40 RIPE Atlas probes per blackholing
event -- drawn from four groups relative to the blackholing user (downstream
cone, upstream cone, peers, inside the user AS) -- towards the blackholed
host and a neighbouring non-blackholed host, both *during* and *after* the
blackholing.  The comparison of traced path lengths shows where traffic is
dropped (Figures 9(a) and 9(b)).

This module reproduces that pipeline on the simulated Internet:

* :class:`ForwardingSimulator` walks the Gao-Rexford AS path hop by hop,
  expands it into IP-level router hops, and terminates the walk early when
  an on-path AS (or IXP) holds an active null route for the destination;
* :class:`AtlasProbeSelector` implements the four-group probe selection;
* :class:`TracerouteCampaign` orchestrates the during/after measurements for
  a set of blackholing requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netutils.prefixes import Prefix
from repro.routing.propagation import RoutePropagator
from repro.topology.generator import InternetTopology
from repro.workload.behavior import BlackholingRequest

__all__ = [
    "AtlasProbeSelector",
    "ForwardingSimulator",
    "TraceroutePath",
    "TracerouteCampaign",
    "TracerouteMeasurement",
]


@dataclass(frozen=True)
class TraceroutePath:
    """The result of one simulated traceroute."""

    source_asn: int
    destination: str
    reached_destination: bool
    as_hops: tuple[int, ...]
    ip_hop_count: int
    dropped_at: int | None = None   # ASN where traffic was discarded, if any

    @property
    def as_hop_count(self) -> int:
        return len(self.as_hops)


class ForwardingSimulator:
    """Simulates data-plane forwarding over the AS topology."""

    def __init__(
        self,
        topology: InternetTopology,
        propagator: RoutePropagator | None = None,
        router_hops_per_as: int = 3,
    ) -> None:
        self.topology = topology
        self.propagator = propagator or RoutePropagator(topology.graph)
        self.router_hops_per_as = router_hops_per_as

    # ------------------------------------------------------------------ #
    def destination_asn(self, address: str) -> int | None:
        """The AS originating the most specific allocation covering ``address``."""
        best: tuple[int, int] | None = None
        for asn, autonomous_system in self.topology.ases.items():
            block = autonomous_system.address_block
            if block is not None and block.contains_address(address):
                if best is None or block.length > best[1]:
                    best = (asn, block.length)
        return None if best is None else best[0]

    def _ip_hops_for_as(self, asn: int) -> int:
        """Deterministic number of router hops inside one AS (1..N)."""
        return 1 + (asn * 2654435761) % self.router_hops_per_as

    def _blackholed_at(
        self,
        as_path: tuple[int, ...],
        prefix_blackholes: dict[str, set[Prefix]],
        destination: str,
    ) -> int | None:
        """First on-path AS (walking from the source) discarding the traffic.

        ``prefix_blackholes`` maps provider keys (``"AS<asn>"`` or IXP names)
        to the prefixes they currently null-route.  Traffic is discarded at
        the ingress of a blackholing provider, or at an IXP hop when both
        adjacent ASes are members of a blackholing IXP holding the route.
        """
        for index, asn in enumerate(as_path):
            prefixes = prefix_blackholes.get(f"AS{asn}", set())
            if any(p.contains_address(destination) for p in prefixes):
                return asn
            if index + 1 < len(as_path):
                next_as = as_path[index + 1]
                for ixp in self.topology.ixps:
                    if not ixp.offers_blackholing:
                        continue
                    if not (ixp.is_member(asn) and ixp.is_member(next_as)):
                        continue
                    prefixes = prefix_blackholes.get(ixp.name, set())
                    if any(p.contains_address(destination) for p in prefixes):
                        return asn
        return None

    def traceroute(
        self,
        source_asn: int,
        destination: str,
        prefix_blackholes: dict[str, set[Prefix]] | None = None,
    ) -> TraceroutePath:
        """Trace from a probe in ``source_asn`` towards ``destination``.

        The AS-level path follows the routing simulation from the source to
        the destination's origin AS (traceroute runs in the opposite
        direction of the BGP announcement, so the AS path is reversed).
        """
        prefix_blackholes = prefix_blackholes or {}
        destination_asn = self.destination_asn(destination)
        if destination_asn is None:
            return TraceroutePath(source_asn, destination, False, (), 0)
        if destination_asn == source_asn:
            as_path: tuple[int, ...] = (source_asn,)
        else:
            announce_path = self.propagator.path(source_asn, destination_asn)
            if announce_path is None:
                return TraceroutePath(source_asn, destination, False, (), 0)
            as_path = announce_path  # source ... destination order already

        dropped_at = self._blackholed_at(as_path, prefix_blackholes, destination)
        if dropped_at is not None:
            truncated = as_path[: as_path.index(dropped_at) + 1]
            # Traffic dies at the provider's ingress: count one router hop
            # inside the discarding AS.
            ip_hops = sum(self._ip_hops_for_as(asn) for asn in truncated[:-1]) + 1
            return TraceroutePath(
                source_asn, destination, False, truncated, ip_hops, dropped_at
            )
        ip_hops = sum(self._ip_hops_for_as(asn) for asn in as_path) + 1
        return TraceroutePath(source_asn, destination, True, as_path, ip_hops)


class AtlasProbeSelector:
    """Selects measurement probes relative to a blackholing user (Section 10).

    Four groups of candidate ASes are built from the AS-relationship data:
    the user's downstream (customer) cone, its upstream (provider) cone, ASes
    reachable over peering links, and the user AS itself; up to
    ``per_group`` probes are drawn from each group.
    """

    def __init__(
        self, topology: InternetTopology, seed: int = 97, per_group: int = 4
    ) -> None:
        self.topology = topology
        self.rng = random.Random(seed)
        self.per_group = per_group

    def probe_groups(self, user_asn: int) -> dict[str, list[int]]:
        graph = self.topology.graph
        if user_asn not in graph:
            return {"downstream": [], "upstream": [], "peers": [], "inside": []}
        downstream = sorted(graph.customer_cone(user_asn) - {user_asn})
        upstream = sorted(graph.upstream_cone(user_asn) - {user_asn})
        peers = sorted(graph.peers(user_asn))
        return {
            "downstream": downstream,
            "upstream": upstream,
            "peers": peers,
            "inside": [user_asn],
        }

    def select_probes(self, user_asn: int) -> list[int]:
        """Up to ``4 * per_group`` probe ASNs, topping up randomly if needed."""
        groups = self.probe_groups(user_asn)
        selected: list[int] = []
        for members in groups.values():
            if not members:
                continue
            count = min(self.per_group, len(members))
            selected.extend(self.rng.sample(members, k=count))
        deficit = 4 * self.per_group - len(selected)
        if deficit > 0:
            pool = [asn for asn in self.topology.asns() if asn not in selected]
            selected.extend(self.rng.sample(pool, k=min(deficit, len(pool))))
        return selected


@dataclass(frozen=True)
class TracerouteMeasurement:
    """One during/after measurement pair from one probe for one request."""

    request_id: int
    probe_asn: int
    user_asn: int
    target: str
    neighbour: str
    prefix_length: int
    during_target: TraceroutePath
    after_target: TraceroutePath
    during_neighbour: TraceroutePath

    # ------------------------------------------------------------------ #
    @property
    def destination_reachable_after(self) -> bool:
        return self.after_target.reached_destination

    @property
    def ip_hop_delta_after_vs_during(self) -> int:
        """after - during IP-level traced path length (positive = shortened)."""
        return self.after_target.ip_hop_count - self.during_target.ip_hop_count

    @property
    def ip_hop_delta_neighbour_vs_during(self) -> int:
        return self.during_neighbour.ip_hop_count - self.during_target.ip_hop_count

    @property
    def as_hop_delta_after_vs_during(self) -> int:
        return self.after_target.as_hop_count - self.during_target.as_hop_count

    @property
    def as_hop_delta_neighbour_vs_during(self) -> int:
        return self.during_neighbour.as_hop_count - self.during_target.as_hop_count

    @property
    def dropped_at_destination_or_upstream(self) -> bool:
        """True when traffic died at the destination AS or its direct upstream.

        The "after" trace reaches the destination, so its last two AS hops
        are the destination AS and its immediate upstream on this path.
        """
        dropped = self.during_target.dropped_at
        if dropped is None or not self.after_target.as_hops:
            return False
        return dropped in self.after_target.as_hops[-2:]


class TracerouteCampaign:
    """Runs the during/after campaign for a set of blackholing requests."""

    def __init__(
        self,
        topology: InternetTopology,
        seed: int = 97,
        propagator: RoutePropagator | None = None,
    ) -> None:
        self.topology = topology
        self.simulator = ForwardingSimulator(topology, propagator)
        self.selector = AtlasProbeSelector(topology, seed=seed)
        self.rng = random.Random(seed ^ 0x7ACE)

    # ------------------------------------------------------------------ #
    def _active_blackholes(
        self, requests: list[BlackholingRequest], exclude: BlackholingRequest | None
    ) -> dict[str, set[Prefix]]:
        """Provider -> null-routed prefixes map for the "during" snapshot."""
        active: dict[str, set[Prefix]] = {}
        for request in requests:
            for provider_key in request.provider_keys:
                active.setdefault(provider_key, set()).add(request.prefix)
        if exclude is not None:
            pass  # the excluded request stays active during its own window
        return active

    def measure_request(
        self,
        request: BlackholingRequest,
        all_requests: list[BlackholingRequest] | None = None,
    ) -> list[TracerouteMeasurement]:
        """During/after measurements for one request from its probe set."""
        all_requests = all_requests if all_requests is not None else [request]
        during_state = self._active_blackholes(all_requests, exclude=None)
        after_state = {
            provider: {p for p in prefixes if p != request.prefix}
            for provider, prefixes in during_state.items()
        }

        target = request.prefix.address_at(0)
        if request.prefix.is_host_route:
            neighbour = request.prefix.neighbour_host().address_at(0)
        else:
            neighbour = request.prefix.address_at(min(1, request.prefix.num_addresses - 1))

        measurements: list[TracerouteMeasurement] = []
        for probe_asn in self.selector.select_probes(request.user_asn):
            during_target = self.simulator.traceroute(probe_asn, target, during_state)
            after_target = self.simulator.traceroute(probe_asn, target, after_state)
            during_neighbour = self.simulator.traceroute(probe_asn, neighbour, during_state)
            measurements.append(
                TracerouteMeasurement(
                    request_id=request.request_id,
                    probe_asn=probe_asn,
                    user_asn=request.user_asn,
                    target=target,
                    neighbour=neighbour,
                    prefix_length=request.prefix.length,
                    during_target=during_target,
                    after_target=after_target,
                    during_neighbour=during_neighbour,
                )
            )
        return measurements

    def run(
        self,
        requests: list[BlackholingRequest],
        max_requests: int | None = None,
    ) -> list[TracerouteMeasurement]:
        """Measure a set of requests (optionally sampling for speed)."""
        selected = list(requests)
        if max_requests is not None and len(selected) > max_requests:
            selected = self.rng.sample(selected, k=max_requests)
        measurements: list[TracerouteMeasurement] = []
        for request in selected:
            measurements.extend(self.measure_request(request, requests))
        return measurements
