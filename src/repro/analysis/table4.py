"""Table 4 -- Blackhole visibility per provider network type.

Groups the inferred blackholing activity by the *provider's* network type
(PeeringDB with CAIDA fallback; IXPs as their own class) and reports the
number of providers, users, blackholed prefixes and the share of providers
with direct collector feeds per class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis import registry
from repro.analysis.common import classify_provider
from repro.analysis.pipeline import StudyResult
from repro.topology.types import NetworkType

__all__ = ["ProviderTypeRow", "table4_analysis"]

TABLE4_TITLE = "Table 4: Blackhole visibility per provider network type (IPv4)"


@dataclass(frozen=True)
class ProviderTypeRow:
    """One row of Table 4."""

    network_type: str
    providers: int
    users: int
    prefixes: int
    direct_feed_fraction: float


@registry.analysis(
    "table4",
    title=TABLE4_TITLE,
    needs=("observations",),
)
def table4_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Table 4 as a registered artifact (per-provider-type visibility).

    Transit/Access and IXP rows are always present; the other types only
    when some provider has them.
    """
    topology = result.topology
    dataset = result.dataset
    peer_asns = set().union(*dataset.collector_peer_asns().values())
    collector_ixps = set().union(*dataset.collector_ixps().values())

    providers: dict[str, set[str]] = defaultdict(set)
    users: dict[str, set[int]] = defaultdict(set)
    prefixes: dict[str, set] = defaultdict(set)
    provider_meta: dict[str, tuple[int | None, str | None]] = {}

    for observation in result.observations:
        label = classify_provider(observation, topology)
        providers[label].add(observation.provider_key)
        provider_meta[observation.provider_key] = (
            observation.provider_asn,
            observation.ixp_name,
        )
        if observation.user_asn is not None:
            users[label].add(observation.user_asn)
        if observation.prefix.family == 4:
            prefixes[label].add(observation.prefix)

    def direct_fraction(provider_keys: set[str]) -> float:
        if not provider_keys:
            return 0.0
        direct = 0
        for key in provider_keys:
            provider_asn, ixp_name = provider_meta[key]
            if ixp_name is not None and ixp_name in collector_ixps:
                direct += 1
            elif provider_asn is not None and provider_asn in peer_asns:
                direct += 1
        return direct / len(provider_keys)

    order = [
        NetworkType.TRANSIT_ACCESS.value,
        NetworkType.IXP.value,
        NetworkType.CONTENT.value,
        NetworkType.ENTERPRISE.value,
        NetworkType.EDUCATION_RESEARCH_NFP.value,
        NetworkType.UNKNOWN.value,
    ]
    rows: list[ProviderTypeRow] = []
    for label in order:
        if label not in providers and label not in (
            NetworkType.TRANSIT_ACCESS.value,
            NetworkType.IXP.value,
        ):
            continue
        rows.append(
            ProviderTypeRow(
                network_type=label,
                providers=len(providers.get(label, ())),
                users=len(users.get(label, ())),
                prefixes=len(prefixes.get(label, ())),
                direct_feed_fraction=direct_fraction(providers.get(label, set())),
            )
        )
    all_providers = set().union(*providers.values()) if providers else set()
    rows.append(
        ProviderTypeRow(
            network_type="Total (unique)",
            providers=len(all_providers),
            users=len(set().union(*users.values())) if users else 0,
            prefixes=len(set().union(*prefixes.values())) if prefixes else 0,
            direct_feed_fraction=direct_fraction(all_providers),
        )
    )
    return registry.AnalysisResult(
        name="table4",
        title=TABLE4_TITLE,
        headers=("Network type", "#Bh prov.", "#Bh users", "#Bh pref.", "Direct feed"),
        rows=tuple(rows),
        display_rows=tuple(
            (
                r.network_type,
                r.providers,
                r.users,
                r.prefixes,
                f"{100 * r.direct_feed_fraction:.0f}%",
            )
            for r in rows
        ),
    )
