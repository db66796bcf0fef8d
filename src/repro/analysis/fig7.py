"""Figure 7 -- services on blackholed hosts, providers per event, propagation.

7(a): how many blackholed prefixes expose each service (scan-data join);
7(b): histogram of the number of blackholing providers per blackholing
event (global vs local blackholing, Section 9);
7(c): histogram of the AS distance between the BGP collector and the
blackholing provider, with the dominant "no-path" bucket contributed by
community bundling.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis import registry
from repro.analysis.pipeline import StudyResult
from repro.dataplane.scans import ScanDataset

__all__ = ["Fig7Summary", "fig7_analysis"]

#: XORed into the scenario seed to seed the simulated scan dataset.
SCAN_SEED_SALT = 0x5CA7


@dataclass(frozen=True)
class Fig7Summary:
    """Headline fractions quoted in Sections 8 and 9."""

    http_prefix_fraction: float
    no_service_fraction: float
    multi_provider_event_fraction: float
    max_providers_per_event: int
    no_path_fraction: float
    propagated_beyond_provider_fraction: float


@registry.analysis(
    "fig7",
    title="Figure 7: exposed services, providers per event, AS distance",
    needs=("report", "events"),
)
def fig7_analysis(result: StudyResult) -> registry.AnalysisResult:
    """All three Figure 7 histograms as one registered artifact.

    ``plot`` selects the sub-figure: ``services`` (7a, blackholed prefixes
    per exposed service from the scan-data join), ``providers_per_event``
    (7b) or ``as_distance`` (7c, AS distance between collector and provider
    over single-AS and confirmed-IXP communities; the "no-path" bucket holds
    bundling-only detections); ``bucket`` is that plot's x value.
    """
    report = result.report
    prefixes = report.ipv4_prefixes()
    scans = ScanDataset(seed=result.dataset.config.seed ^ SCAN_SEED_SALT)
    services = scans.service_histogram(scans.scan_prefixes(prefixes))
    per_event: dict[int, int] = defaultdict(int)
    for event in result.events:
        per_event[event.provider_count] += 1
    distances = report.as_distance_histogram()

    rows: list[dict] = []
    for plot, histogram in (
        ("services", services),
        ("providers_per_event", dict(per_event)),
        ("as_distance", distances),
    ):
        for bucket, count in sorted(histogram.items(), key=lambda item: str(item[0])):
            rows.append({"plot": plot, "bucket": bucket, "count": count})

    prefix_total = max(1, len(prefixes))
    event_total = max(1, sum(per_event.values()))
    distance_total = max(1, sum(distances.values()))
    beyond = sum(
        count
        for bucket, count in distances.items()
        if bucket not in ("no-path", "0") and int(bucket) >= 1
    )
    summary = Fig7Summary(
        http_prefix_fraction=services.get("HTTP", 0) / prefix_total,
        no_service_fraction=services.get("NONE", 0) / prefix_total,
        multi_provider_event_fraction=(
            sum(count for providers, count in per_event.items() if providers > 1)
            / event_total
        ),
        max_providers_per_event=max(per_event) if per_event else 0,
        no_path_fraction=distances.get("no-path", 0) / distance_total,
        propagated_beyond_provider_fraction=beyond / distance_total,
    )
    return registry.AnalysisResult(
        name="fig7",
        title="Figure 7: exposed services, providers per event, AS distance",
        headers=("plot", "bucket", "count"),
        rows=tuple(rows),
        meta={"summary": summary},
    )
