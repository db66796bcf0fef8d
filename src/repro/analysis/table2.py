"""Table 2 -- Documented blackhole communities per network type.

The paper groups the 307 networks of the documented dictionary (and, in
parentheses, the 102 networks of the inferred/undocumented extension) by
their declared network type (PeeringDB, falling back to CAIDA's
classification), reporting the number of networks and the number of
blackhole communities per type.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.analysis import registry
from repro.dictionary.model import BlackholeDictionary
from repro.topology.types import NetworkType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pipeline import StudyResult

__all__ = ["CommunityDistributionRow", "table2_analysis"]

TABLE2_TITLE = "Table 2: Documented (inferred) blackhole communities per network type"


@dataclass(frozen=True)
class CommunityDistributionRow:
    """One row of Table 2."""

    network_type: str
    networks: int
    communities: int
    inferred_networks: int
    inferred_communities: int


@registry.analysis(
    "table2",
    title=TABLE2_TITLE,
    needs=("documented_dictionary", "inferred_dictionary"),
)
def table2_analysis(result: "StudyResult") -> registry.AnalysisResult:
    """Table 2 as a registered artifact (dictionaries only, no inference).

    Networks and communities per provider type, for the documented and the
    inferred dictionary; the text table shows them as ``"documented
    (inferred)"`` cells.
    """
    topology = result.topology
    documented = result.dictionary
    inferred = result.inferred_dictionary

    def distribution(dictionary: BlackholeDictionary) -> tuple[dict[str, set], dict[str, set]]:
        networks: dict[str, set] = defaultdict(set)
        communities: dict[str, set] = defaultdict(set)
        for entry in dictionary.entries():
            if (
                entry.ixp_name is not None
                or topology.ixp_by_route_server(entry.provider_asn) is not None
            ):
                label = NetworkType.IXP.value
            else:
                label = topology.classify(entry.provider_asn).value
            networks[label].add(entry.ixp_name if entry.ixp_name else entry.provider_asn)
            communities[label].add(entry.community)
        return networks, communities

    doc_networks, doc_communities = distribution(documented)
    inf_networks, inf_communities = distribution(inferred)

    order = [
        NetworkType.TRANSIT_ACCESS.value,
        NetworkType.IXP.value,
        NetworkType.CONTENT.value,
        NetworkType.EDUCATION_RESEARCH_NFP.value,
        NetworkType.ENTERPRISE.value,
        NetworkType.UNKNOWN.value,
    ]
    rows = [
        CommunityDistributionRow(
            network_type=label,
            networks=len(doc_networks.get(label, ())),
            communities=len(doc_communities.get(label, ())),
            inferred_networks=len(inf_networks.get(label, ())),
            inferred_communities=len(inf_communities.get(label, ())),
        )
        for label in order
    ]
    rows.append(
        CommunityDistributionRow(
            network_type="TOTAL unique",
            networks=sum(len(v) for v in doc_networks.values()),
            communities=len(documented.communities()),
            inferred_networks=sum(len(v) for v in inf_networks.values()),
            inferred_communities=len(inferred.communities()),
        )
    )
    return registry.AnalysisResult(
        name="table2",
        title=TABLE2_TITLE,
        headers=("Network type", "#Networks", "#Blackhole communities"),
        rows=tuple(rows),
        display_rows=tuple(
            (
                r.network_type,
                f"{r.networks} ({r.inferred_networks})",
                f"{r.communities} ({r.inferred_communities})",
            )
            for r in rows
        ),
    )
