"""Figure 2 -- prefix-length usage of blackhole vs non-blackhole communities.

The figure plots, for every community tag, the fraction of its occurrences
at each prefix length: non-blackhole communities concentrate on /24 and
less-specific prefixes, blackhole communities almost exclusively on /32s.
This module computes the surface and the two summary statistics that make
the separation quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.analysis import registry
from repro.analysis.pipeline import StudyResult
from repro.dictionary.inference import ExtendedDictionaryInference

__all__ = ["Fig2Summary", "fig2_analysis", "fig2_surface_analysis"]


@dataclass(frozen=True)
class Fig2Summary:
    """Separation statistics behind Figure 2."""

    blackhole_communities: int
    non_blackhole_communities: int
    #: Mean fraction of blackhole-community occurrences on prefixes more
    #: specific than /24 (paper: "almost exclusively on /32").
    blackhole_more_specific_fraction: float
    #: Mean fraction of non-blackhole-community occurrences on /24 or
    #: less-specific prefixes.
    non_blackhole_at_most_24_fraction: float
    inferred_communities: int
    inferred_ases: int


@registry.analysis(
    "fig2",
    title="Figure 2: blackhole vs non-blackhole community separation",
    needs=(
        "usage_stats",
        "documented_dictionary",
        "non_blackhole_communities",
        "inferred_dictionary",
    ),
)
def fig2_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Figure 2's separation statistics as a registered artifact."""
    stats = result.usage_stats
    documented = result.dictionary

    blackhole_fracs: list[float] = []
    non_blackhole_fracs: list[float] = []
    for community in stats.communities():
        specific = stats.more_specific_fraction(community)
        if documented.is_blackhole_community(community):
            blackhole_fracs.append(specific)
        elif community in result.non_blackhole_communities:
            non_blackhole_fracs.append(1.0 - specific)

    inferred = result.inferred_dictionary
    summary = Fig2Summary(
        blackhole_communities=len(blackhole_fracs),
        non_blackhole_communities=len(non_blackhole_fracs),
        blackhole_more_specific_fraction=(
            sum(blackhole_fracs) / len(blackhole_fracs) if blackhole_fracs else 0.0
        ),
        non_blackhole_at_most_24_fraction=(
            sum(non_blackhole_fracs) / len(non_blackhole_fracs)
            if non_blackhole_fracs
            else 0.0
        ),
        inferred_communities=inferred.community_count(),
        inferred_ases=inferred.provider_count(),
    )
    return registry.AnalysisResult(
        name="fig2",
        title="Figure 2: blackhole vs non-blackhole community separation",
        headers=tuple(f.name for f in fields(Fig2Summary)),
        rows=(summary,),
    )


@registry.analysis(
    "fig2_surface",
    title="Figure 2: per-community prefix-length usage surface",
    needs=("usage_stats", "documented_dictionary", "non_blackhole_communities"),
)
def fig2_surface_analysis(result: StudyResult) -> registry.AnalysisResult:
    """The (community, prefix length, fraction) surface behind Figure 2."""
    rows = ExtendedDictionaryInference(result.dictionary).figure2_surface(
        result.usage_stats, non_blackhole=result.non_blackhole_communities
    )
    return registry.AnalysisResult(
        name="fig2_surface",
        title="Figure 2: per-community prefix-length usage surface",
        headers=("community_index", "community", "prefix_length", "fraction", "label"),
        rows=tuple(rows),
        meta={"points": len(rows)},
    )
