"""Figure 5 -- CDFs of blackholed prefixes per provider and per user type.

5(a): CDF of the number of blackholed prefixes per blackholing provider,
split into transit/access providers and IXPs (IXPs are more extreme at both
ends).  5(b): CDF of blackholed prefixes per blackholing user, split by user
network type -- content providers are by far the most active group.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis import registry
from repro.analysis.common import cdf_points, classify_provider, classify_user
from repro.analysis.pipeline import StudyResult
from repro.topology.types import NetworkType

__all__ = ["Fig5Summary", "fig5_analysis"]


@dataclass(frozen=True)
class Fig5Summary:
    """Headline numbers quoted alongside Figure 5."""

    providers_with_single_prefix_fraction: float
    ixps_with_single_prefix_fraction: float
    content_user_fraction: float
    content_prefix_share: float


def _single_prefix_fraction(counts: list[int]) -> float:
    return sum(1 for count in counts if count == 1) / len(counts) if counts else 0.0


@registry.analysis(
    "fig5",
    title="Figure 5: blackholed prefixes per provider and per user type (CDFs)",
    needs=("observations",),
)
def fig5_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Both Figure 5 CDF families as one registered artifact.

    Each row is one CDF point: ``plot`` is ``"providers"`` (5a) or
    ``"users"`` (5b), ``group`` the network-type split of that plot.  The
    CDFs split providers by :func:`classify_provider` (Transit/Access, IXP,
    Other); the summary splits them by whether the observation names an IXP.
    """
    topology = result.topology
    per_provider: dict[str, set] = defaultdict(set)
    provider_label: dict[str, str] = {}
    provider_is_ixp: dict[str, bool] = {}
    per_user: dict[int, set] = defaultdict(set)
    for observation in result.observations:
        key = observation.provider_key
        per_provider[key].add(observation.prefix)
        provider_label[key] = classify_provider(observation, topology)
        provider_is_ixp[key] = observation.ixp_name is not None
        if observation.user_asn is not None:
            per_user[observation.user_asn].add(observation.prefix)

    provider_groups: dict[str, list[float]] = defaultdict(list)
    for provider, prefixes in per_provider.items():
        label = provider_label[provider]
        if label == NetworkType.IXP.value:
            provider_groups["IXP"].append(len(prefixes))
        elif label == NetworkType.TRANSIT_ACCESS.value:
            provider_groups["Transit/Access"].append(len(prefixes))
        else:
            provider_groups["Other"].append(len(prefixes))
    user_label = {user: classify_user(user, topology) for user in per_user}
    user_groups: dict[str, list[float]] = defaultdict(list)
    for user, prefixes in per_user.items():
        user_groups[user_label[user]].append(len(prefixes))

    rows: list[dict] = []
    for plot, groups in (("providers", provider_groups), ("users", user_groups)):
        for group in sorted(groups):
            for value, fraction in cdf_points(groups[group]):
                rows.append(
                    {"plot": plot, "group": group, "value": value, "cdf": fraction}
                )

    content_users = [
        user for user, label in user_label.items() if label == NetworkType.CONTENT.value
    ]
    all_prefixes = set().union(*per_user.values()) if per_user else set()
    content_prefixes = (
        set().union(*(per_user[user] for user in content_users)) if content_users else set()
    )
    summary = Fig5Summary(
        providers_with_single_prefix_fraction=_single_prefix_fraction(
            [len(p) for key, p in per_provider.items() if not provider_is_ixp[key]]
        ),
        ixps_with_single_prefix_fraction=_single_prefix_fraction(
            [len(p) for key, p in per_provider.items() if provider_is_ixp[key]]
        ),
        content_user_fraction=len(content_users) / len(per_user) if per_user else 0.0,
        content_prefix_share=(
            len(content_prefixes) / len(all_prefixes) if all_prefixes else 0.0
        ),
    )
    return registry.AnalysisResult(
        name="fig5",
        title="Figure 5: blackholed prefixes per provider and per user type (CDFs)",
        headers=("plot", "group", "value", "cdf"),
        rows=tuple(rows),
        meta={"summary": summary},
    )
