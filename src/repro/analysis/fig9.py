"""Figure 9 -- blackholing efficacy on the data plane.

9(a): histogram/CDF of IP-level traced-path-length differences (after minus
during the blackholing, and neighbour minus blackholed host during the
blackholing); 9(b): the same at the AS level; 9(c): traffic towards the most
popular blackholed prefixes at an IXP, split into the volume dropped at the
IXP and the volume still forwarded.

Section 10's headline numbers are also computed: the average path shortening
(about 5.9 IP hops and 2-4 AS hops in the paper), the fraction of paths that
terminate earlier during blackholing (>80%), and the fraction of traffic
dropped for the top /32s (>50%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import registry
from repro.analysis.pipeline import StudyResult
from repro.dataplane.ipfix import IxpTrafficSimulator
from repro.dataplane.traceroute import TracerouteCampaign

__all__ = ["EfficacySummary", "fig9_analysis", "fig9_traffic_analysis"]

#: Blackholing requests sampled by the during/after traceroute campaign.
MAX_REQUESTS = 60
#: Seed of the traceroute campaign (probe selection).
TRACEROUTE_SEED = 97
#: Most popular blackholed prefixes shown in Figure 9(c).
TOP_PREFIX_COUNT = 4
#: Seed of the IXP traffic simulator behind Figure 9(c).
TRAFFIC_SEED = 41


@dataclass(frozen=True)
class EfficacySummary:
    """Headline efficacy statistics of Section 10."""

    measurements: int
    mean_ip_hop_shortening: float
    mean_as_hop_shortening: float
    shortened_path_fraction: float
    dropped_at_destination_or_upstream_fraction: float
    less_specific_mean_ip_delta: float


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


@registry.analysis(
    "fig9",
    title="Figure 9: blackholing efficacy on the data plane (path deltas)",
    needs=(),
)
def fig9_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Figures 9(a)/9(b) as a registered artifact.

    Runs the during/after traceroute campaign over a sample of the
    scenario's ground-truth requests (no pipeline stage needed); each row is
    one measured path-length delta of one of the four plotted distributions.
    As in the paper, only measurements whose destination is reachable after
    the blackholing are kept (to exclude unrelated unreachability), and the
    summary analyses host routes and /24-or-shorter prefixes separately.
    """
    dataset = result.dataset
    campaign = TracerouteCampaign(dataset.topology, seed=TRACEROUTE_SEED)
    measurements = campaign.run(dataset.requests, max_requests=MAX_REQUESTS)
    usable = [m for m in measurements if m.destination_reachable_after]

    rows: list[dict] = []
    for metric, attribute in (
        ("ip_after_vs_during", "ip_hop_delta_after_vs_during"),
        ("ip_neighbour_vs_during", "ip_hop_delta_neighbour_vs_during"),
        ("as_after_vs_during", "as_hop_delta_after_vs_during"),
        ("as_neighbour_vs_during", "as_hop_delta_neighbour_vs_during"),
    ):
        for m in usable:
            rows.append({"metric": metric, "delta": getattr(m, attribute)})

    host_routes = [m for m in usable if m.prefix_length > 24]
    less_specific = [m for m in usable if m.prefix_length <= 24]
    shortened = [m for m in host_routes if m.ip_hop_delta_after_vs_during > 0]
    dropped_near_destination = [
        m for m in host_routes if m.dropped_at_destination_or_upstream
    ]
    summary = EfficacySummary(
        measurements=len(usable),
        mean_ip_hop_shortening=_mean([m.ip_hop_delta_after_vs_during for m in host_routes]),
        mean_as_hop_shortening=_mean([m.as_hop_delta_after_vs_during for m in host_routes]),
        shortened_path_fraction=(
            len(shortened) / len(host_routes) if host_routes else 0.0
        ),
        dropped_at_destination_or_upstream_fraction=(
            len(dropped_near_destination) / len(host_routes) if host_routes else 0.0
        ),
        less_specific_mean_ip_delta=_mean(
            [m.ip_hop_delta_after_vs_during for m in less_specific]
        ),
    )
    return registry.AnalysisResult(
        name="fig9",
        title="Figure 9: blackholing efficacy on the data plane (path deltas)",
        headers=("metric", "delta"),
        rows=tuple(rows),
        meta={"summary": summary},
    )


@registry.analysis(
    "fig9_traffic",
    title="Figure 9(c): dropped vs forwarded traffic at a blackholing IXP",
    needs=(),
)
def fig9_traffic_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Per-prefix dropped/forwarded volume for the top blackholed prefixes.

    Simulates a week of traffic at the blackholing IXP with the most members
    and keeps the :data:`TOP_PREFIX_COUNT` most popular blackholed prefixes.
    """
    dataset = result.dataset
    blackholing_ixps = [ixp for ixp in dataset.topology.ixps if ixp.offers_blackholing]
    series: dict = {}
    if blackholing_ixps:
        ixp = max(blackholing_ixps, key=lambda i: len(i.members))
        simulator = IxpTrafficSimulator(dataset.topology, ixp, seed=TRAFFIC_SEED)

        # The paper's Figure 9(c) focuses on prefixes "blackholed throughout
        # the week", so anchor the analysis week on the longest-lived request
        # that targets this IXP (falling back to the window start).
        ixp_requests = [
            request for request in dataset.requests if ixp.name in request.provider_keys
        ]
        long_lived = max(
            ixp_requests,
            key=lambda r: r.end_time - r.start_time,
            default=None,
        )
        start = max(dataset.start, long_lived.start_time) if long_lived else dataset.start
        end = min(dataset.end, start + 7 * 86_400.0)
        overlapping = [
            request
            for request in ixp_requests
            if request.start_time < end and request.end_time > start
        ]

        def active_seconds(request) -> float:
            return sum(
                max(0.0, min(interval_end, end) - max(interval_start, start))
                for interval_start, interval_end in request.intervals
            )

        # Prefer prefixes "blackholed throughout the week", as the paper
        # does; progressively relax the coverage requirement if nothing
        # qualifies.
        requests: list = []
        for coverage in (0.9, 0.5, 0.0):
            requests = [
                r for r in overlapping if active_seconds(r) >= coverage * (end - start)
            ]
            if requests:
                break
        flows = simulator.generate_flows(requests, start, end)
        per_prefix = simulator.traffic_series(flows, start, end)
        top = simulator.top_prefixes(flows, count=TOP_PREFIX_COUNT)
        series = {prefix: per_prefix[prefix] for prefix in top if prefix in per_prefix}
    rows = tuple(
        {
            "prefix": str(prefix),
            "dropped": prefix_series.total_dropped,
            "forwarded": prefix_series.total_forwarded,
            "dropped_fraction": prefix_series.dropped_fraction,
        }
        for prefix, prefix_series in series.items()
    )
    return registry.AnalysisResult(
        name="fig9_traffic",
        title="Figure 9(c): dropped vs forwarded traffic at a blackholing IXP",
        headers=("prefix", "dropped", "forwarded", "dropped_fraction"),
        rows=rows,
        meta={"prefixes": len(rows)},
    )
