"""Figure 6 -- blackholing providers and users per country.

The paper maps provider and user ASes to their RIR-registered country and
finds Russia, the USA and Germany on top for both groups, with Brazil and
Ukraine prominent among users.  The reproduction resolves countries through
the simulated PeeringDB records (falling back to the topology's RIR ground
truth for networks without a record).
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis import registry
from repro.analysis.pipeline import StudyResult
from repro.topology.generator import InternetTopology

__all__ = ["fig6_analysis"]

#: Countries listed in the ``top_*_countries`` meta entries.
TOP_COUNTRIES = 5


def _country_of(asn: int | None, ixp_name: str | None, topology: InternetTopology) -> str | None:
    if ixp_name is not None:
        try:
            return topology.ixp_by_name(ixp_name).country
        except KeyError:
            return None
    if asn is None:
        return None
    record = topology.peeringdb.get(asn)
    if record is not None:
        return record.country
    if asn in topology.ases:
        return topology.get_as(asn).country
    return None


def _ranked(countries: dict) -> list[tuple[str, int]]:
    """Networks per country, most first (ties broken alphabetically)."""
    counts: dict[str, int] = defaultdict(int)
    for country in countries.values():
        counts[country] += 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


@registry.analysis(
    "fig6",
    title="Figure 6: blackholing providers and users per country",
    needs=("observations",),
)
def fig6_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Distinct provider/user networks per registered country as one artifact."""
    topology = result.topology
    provider_country: dict[str, str] = {}
    user_country: dict[int, str] = {}
    for observation in result.observations:
        provider = observation.provider_key
        if provider not in provider_country:
            country = _country_of(observation.provider_asn, observation.ixp_name, topology)
            if country is not None:
                provider_country[provider] = country
        user = observation.user_asn
        if user is not None and user not in user_country:
            country = _country_of(user, None, topology)
            if country is not None:
                user_country[user] = country
    providers = _ranked(provider_country)
    users = _ranked(user_country)
    rows: list[dict] = []
    for group, ranked in (("providers", providers), ("users", users)):
        for country, networks in ranked:
            rows.append({"group": group, "country": country, "networks": networks})
    return registry.AnalysisResult(
        name="fig6",
        title="Figure 6: blackholing providers and users per country",
        headers=("group", "country", "networks"),
        rows=tuple(rows),
        meta={
            "top_provider_countries": providers[:TOP_COUNTRIES],
            "top_user_countries": users[:TOP_COUNTRIES],
        },
    )
