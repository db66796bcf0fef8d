"""Table 3 -- Blackhole dataset overview per source.

For every BGP data source (CDN, RIS, RouteViews, PCH) and for all combined,
the paper reports: visible blackholing providers, providers unique to the
source, blackholing users, unique users, blackholed prefixes, unique
prefixes, and the share of providers with a direct BGP feed to the source.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import registry
from repro.analysis.pipeline import StudyResult

__all__ = ["BlackholeVisibilityRow", "table3_analysis", "table3_summary_analysis"]

TABLE3_TITLE = "Table 3: Blackhole dataset overview (IPv4)"


@dataclass(frozen=True)
class BlackholeVisibilityRow:
    """One row of Table 3."""

    source: str
    providers: int
    unique_providers: int
    users: int
    unique_users: int
    prefixes: int
    unique_prefixes: int
    direct_feed_fraction: float


@registry.analysis(
    "table3",
    title=TABLE3_TITLE,
    needs=("report",),
)
def table3_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Table 3 as a registered artifact (per-source blackhole visibility)."""
    report = result.report
    dataset = result.dataset
    peer_asns = dataset.collector_peer_asns()
    collector_ixps = dataset.collector_ixps()

    unique_providers = report.unique_providers_per_project()
    unique_users = report.unique_users_per_project()
    unique_prefixes = report.unique_prefixes_per_project()

    rows = [
        BlackholeVisibilityRow(
            source=project,
            providers=len(report.providers(project)),
            unique_providers=unique_providers.get(project, 0),
            users=len(report.users(project)),
            unique_users=unique_users.get(project, 0),
            prefixes=len(report.ipv4_prefixes(project)),
            unique_prefixes=unique_prefixes.get(project, 0),
            direct_feed_fraction=report.direct_feed_fraction(
                peer_asns, collector_ixps, project
            ),
        )
        for project in sorted(report.projects())
    ]
    rows.append(
        BlackholeVisibilityRow(
            source="ALL",
            providers=len(report.providers()),
            unique_providers=sum(unique_providers.values()),
            users=len(report.users()),
            unique_users=sum(unique_users.values()),
            prefixes=len(report.ipv4_prefixes()),
            unique_prefixes=sum(unique_prefixes.values()),
            direct_feed_fraction=report.direct_feed_fraction(peer_asns, collector_ixps),
        )
    )
    return registry.AnalysisResult(
        name="table3",
        title=TABLE3_TITLE,
        headers=(
            "Source",
            "#Bh providers",
            "#Unique prov.",
            "#Bh users",
            "#Unique users",
            "#Bh prefixes",
            "#Unique pref.",
            "Direct feeds",
        ),
        rows=tuple(rows),
        display_rows=tuple(
            (
                r.source,
                r.providers,
                r.unique_providers,
                r.users,
                r.unique_users,
                r.prefixes,
                r.unique_prefixes,
                f"{100 * r.direct_feed_fraction:.1f}%",
            )
            for r in rows
        ),
    )


@registry.analysis(
    "table3_summary",
    title="Section 5.1: headline blackhole visibility",
    needs=("report", "documented_dictionary"),
)
def table3_summary_analysis(result: StudyResult) -> registry.AnalysisResult:
    """The Section 5.1 headline visibility numbers as a single-row artifact."""
    report = result.report
    dictionary_providers = result.dictionary.provider_count()
    visible_providers = len(report.providers())
    summary = {
        "dictionary_providers": float(dictionary_providers),
        "visible_providers": float(visible_providers),
        "provider_visibility_fraction": (
            visible_providers / dictionary_providers if dictionary_providers else 0.0
        ),
        "users": float(len(report.users())),
        "blackholed_prefixes": float(len(report.ipv4_prefixes())),
        "host_route_fraction": report.host_route_fraction(),
        "bundled_fraction": report.bundled_fraction(),
    }
    return registry.AnalysisResult(
        name="table3_summary",
        title="Section 5.1: headline blackhole visibility",
        headers=tuple(summary),
        rows=(summary,),
    )
