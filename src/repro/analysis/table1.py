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
from repro.analysis.common import format_table
from repro.netutils.prefixes import Prefix
from repro.workload.simulation import ScenarioDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pipeline import StudyResult

__all__ = ["DatasetOverviewRow", "compute_table1", "format_table1", "table1_analysis"]

TABLE1_HEADERS = (
    "Source",
    "#IP peers",
    "#AS peers",
    "#Unique AS peers",
    "#Prefixes",
    "#Unique prefixes",
)


@dataclass(frozen=True)
class DatasetOverviewRow:
    """One row of Table 1."""

    source: str
    ip_peers: int
    as_peers: int
    unique_as_peers: int
    prefixes: int
    unique_prefixes: int


def _project_sets(
    dataset: ScenarioDataset,
) -> tuple[dict[str, set[str]], dict[str, set[int]], dict[str, set[Prefix]]]:
    """Per-project IP peers, AS peers and prefixes, from one walk of the sources."""
    ip_peers: dict[str, set[str]] = defaultdict(set)
    as_peers: dict[str, set[int]] = defaultdict(set)
    prefixes: dict[str, set[Prefix]] = defaultdict(set)

    for source in dataset.sources:
        project = source.project
        for elem in source.all_elems():
            ip_peers[project].add(elem.peer_ip)
            as_peers[project].add(elem.peer_as)
            prefixes[project].add(elem.prefix)
    return ip_peers, as_peers, prefixes


def _rows(
    ip_peers: dict[str, set[str]],
    as_peers: dict[str, set[int]],
    prefixes: dict[str, set[Prefix]],
) -> list[DatasetOverviewRow]:
    projects = sorted(ip_peers)
    rows: list[DatasetOverviewRow] = []
    for project in projects:
        other_as = set().union(*(as_peers[p] for p in projects if p != project)) if len(projects) > 1 else set()
        other_prefixes = (
            set().union(*(prefixes[p] for p in projects if p != project))
            if len(projects) > 1
            else set()
        )
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
    rows.append(
        DatasetOverviewRow(
            source="Total",
            ip_peers=len(set().union(*ip_peers.values())) if ip_peers else 0,
            as_peers=len(set().union(*as_peers.values())) if as_peers else 0,
            unique_as_peers=sum(row.unique_as_peers for row in rows),
            prefixes=len(set().union(*prefixes.values())) if prefixes else 0,
            unique_prefixes=sum(row.unique_prefixes for row in rows),
        )
    )
    return rows


def _ipv4_share(prefixes: dict[str, set[Prefix]]) -> float:
    all_prefixes: set[Prefix] = set().union(*prefixes.values())
    if not all_prefixes:
        return 0.0
    return sum(1 for p in all_prefixes if p.family == 4) / len(all_prefixes)


def compute_table1(dataset: ScenarioDataset) -> list[DatasetOverviewRow]:
    """Compute the Table 1 rows (one per project, plus a TOTAL row)."""
    return _rows(*_project_sets(dataset))


def ipv4_fraction(dataset: ScenarioDataset) -> float:
    """Fraction of observed prefixes that are IPv4 (the paper reports 96.64%)."""
    return _ipv4_share(_project_sets(dataset)[2])


@registry.analysis(
    "table1",
    title="Table 1: Overview of BGP datasets",
    needs=(),
)
def table1_analysis(result: "StudyResult") -> registry.AnalysisResult:
    """Table 1 as a registered artifact (scenario dataset only, no stages).

    The rows and the IPv4 share come from one walk of the sources.
    """
    ip_peers, as_peers, prefixes = _project_sets(result.dataset)
    return registry.AnalysisResult(
        name="table1",
        title="Table 1: Overview of BGP datasets",
        headers=TABLE1_HEADERS,
        rows=tuple(_rows(ip_peers, as_peers, prefixes)),
        meta={"ipv4_fraction": _ipv4_share(prefixes)},
    )


def format_table1(rows: list[DatasetOverviewRow]) -> str:
    return format_table(
        list(TABLE1_HEADERS),
        [
            (r.source, r.ip_peers, r.as_peers, r.unique_as_peers, r.prefixes, r.unique_prefixes)
            for r in rows
        ],
        title="Table 1: Overview of BGP datasets",
    )
