"""Table 1 -- Overview of the BGP datasets.

For each source platform (RIS, RouteViews, PCH, CDN) the paper reports the
number of IP-level peers, AS-level peers, AS peers unique to the platform,
prefixes observed and prefixes unique to the platform, for one month (March
2017).  The reproduction computes the same columns over the simulated
collector feeds (table dumps plus update streams).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.analysis import registry
from repro.netutils.prefixes import Prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pipeline import StudyResult

__all__ = ["DatasetOverviewRow", "table1_analysis"]


@dataclass(frozen=True)
class DatasetOverviewRow:
    """One row of Table 1."""

    source: str
    ip_peers: int
    as_peers: int
    unique_as_peers: int
    prefixes: int
    unique_prefixes: int


@registry.analysis(
    "table1",
    title="Table 1: Overview of BGP datasets",
    needs=(),
)
def table1_analysis(result: "StudyResult") -> registry.AnalysisResult:
    """Table 1 as a registered artifact (scenario dataset only, no stages).

    One row per project plus a Total row, and the IPv4 share of observed
    prefixes as meta (the paper reports 96.64%), all from one walk of each
    source's peer and prefix fields (``peer_sets``; no elem is built).
    """
    ip_peers: dict[str, set[str]] = defaultdict(set)
    as_peers: dict[str, set[int]] = defaultdict(set)
    prefixes: dict[str, set[Prefix]] = defaultdict(set)
    for source in result.dataset.sources:
        project = source.project
        source_ips, source_ases, source_prefixes = source.peer_sets()
        ip_peers[project] |= source_ips
        as_peers[project] |= source_ases
        prefixes[project] |= source_prefixes

    projects = sorted(ip_peers)
    rows: list[DatasetOverviewRow] = []
    for project in projects:
        others = [p for p in projects if p != project]
        other_as = set().union(*(as_peers[p] for p in others))
        other_prefixes = set().union(*(prefixes[p] for p in others))
        rows.append(
            DatasetOverviewRow(
                source=project,
                ip_peers=len(ip_peers[project]),
                as_peers=len(as_peers[project]),
                unique_as_peers=len(as_peers[project] - other_as),
                prefixes=len(prefixes[project]),
                unique_prefixes=len(prefixes[project] - other_prefixes),
            )
        )
    all_prefixes: set[Prefix] = set().union(*prefixes.values())
    rows.append(
        DatasetOverviewRow(
            source="Total",
            ip_peers=len(set().union(*ip_peers.values())),
            as_peers=len(set().union(*as_peers.values())),
            unique_as_peers=sum(row.unique_as_peers for row in rows),
            prefixes=len(all_prefixes),
            unique_prefixes=sum(row.unique_prefixes for row in rows),
        )
    )
    ipv4_share = (
        sum(1 for p in all_prefixes if p.family == 4) / len(all_prefixes)
        if all_prefixes
        else 0.0
    )
    return registry.AnalysisResult(
        name="table1",
        title="Table 1: Overview of BGP datasets",
        headers=(
            "Source",
            "#IP peers",
            "#AS peers",
            "#Unique AS peers",
            "#Prefixes",
            "#Unique prefixes",
        ),
        rows=tuple(rows),
        meta={"ipv4_fraction": ipv4_share},
    )
