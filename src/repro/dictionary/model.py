"""Dictionary data model.

A :class:`BlackholeDictionary` maps community values to
:class:`CommunityEntry` objects describing which provider(s) honour the
value, how it was learned, its geographic scope, and any metadata recovered
from the documentation (maximum accepted prefix length).  One community may
map to several providers -- shared values such as ``0:666`` or the RFC 7999
``65535:666`` used by almost every IXP -- which is why lookups return lists
and why the inference engine must disambiguate via the AS path or the
peer IP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.bgp.community import Community, CommunitySet, LargeCommunity

__all__ = [
    "BlackholeDictionary",
    "CommunityEntry",
    "CommunityMatcher",
    "CommunitySource",
]


class CommunitySource(enum.Enum):
    """How a dictionary entry was learned."""

    IRR = "irr"
    WEB = "web"
    PRIVATE = "private"
    INFERRED = "inferred"


@dataclass(frozen=True)
class CommunityEntry:
    """One (community, provider) association."""

    community: Community | LargeCommunity
    provider_asn: int
    source: CommunitySource
    ixp_name: str | None = None
    scope: str = "global"
    max_prefix_length: int | None = None

    @property
    def is_ixp(self) -> bool:
        return self.ixp_name is not None

    @property
    def is_documented(self) -> bool:
        return self.source is not CommunitySource.INFERRED

    def with_source(self, source: CommunitySource) -> "CommunityEntry":
        return replace(self, source=source)


class BlackholeDictionary:
    """Community value -> blackholing provider(s) mapping."""

    def __init__(self, entries: Iterable[CommunityEntry] = ()) -> None:
        self._by_community: dict[Community | LargeCommunity, list[CommunityEntry]] = {}
        self._by_provider: dict[int, list[CommunityEntry]] = {}
        for entry in entries:
            self.add(entry)

    # ------------------------------------------------------------------ #
    def add(self, entry: CommunityEntry) -> None:
        """Add an entry, ignoring exact duplicates."""
        existing = self._by_community.setdefault(entry.community, [])
        if any(
            e.provider_asn == entry.provider_asn and e.ixp_name == entry.ixp_name
            for e in existing
        ):
            return
        existing.append(entry)
        self._by_provider.setdefault(entry.provider_asn, []).append(entry)

    def merge(self, other: "BlackholeDictionary") -> "BlackholeDictionary":
        merged = BlackholeDictionary(self.entries())
        for entry in other.entries():
            merged.add(entry)
        return merged

    # ------------------------------------------------------------------ #
    def entries(self) -> list[CommunityEntry]:
        return [entry for entries in self._by_community.values() for entry in entries]

    def communities(self) -> set[Community | LargeCommunity]:
        return set(self._by_community)

    def standard_communities(self) -> set[Community]:
        return {c for c in self._by_community if isinstance(c, Community)}

    def providers(self) -> set[int]:
        return set(self._by_provider)

    def provider_count(self) -> int:
        return len(self._by_provider)

    def community_count(self) -> int:
        return len(self._by_community)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_community.values())

    def __iter__(self) -> Iterator[CommunityEntry]:
        return iter(self.entries())

    def __contains__(self, community: object) -> bool:
        return community in self._by_community

    # ------------------------------------------------------------------ #
    def lookup(self, community: Community | LargeCommunity) -> list[CommunityEntry]:
        """All entries for one community value (empty when unknown)."""
        return list(self._by_community.get(community, ()))

    def entries_for_provider(self, provider_asn: int) -> list[CommunityEntry]:
        return list(self._by_provider.get(provider_asn, ()))

    def is_blackhole_community(self, community: Community | LargeCommunity) -> bool:
        return community in self._by_community

    def is_ambiguous(self, community: Community | LargeCommunity) -> bool:
        """True when more than one (non-IXP) provider shares the value."""
        entries = self._by_community.get(community, ())
        non_ixp = [entry for entry in entries if not entry.is_ixp]
        return len(non_ixp) > 1 or (len(non_ixp) >= 1 and len(entries) > len(non_ixp))

    def match(self, communities: CommunitySet) -> list[CommunityEntry]:
        """All entries triggered by any community in a BGP announcement."""
        matched: list[CommunityEntry] = []
        for community in communities.standard:
            matched.extend(self._by_community.get(community, ()))
        for large in communities.large:
            matched.extend(self._by_community.get(large, ()))
        return matched

    def matched_communities(
        self, communities: CommunitySet
    ) -> set[Community | LargeCommunity]:
        """The subset of an announcement's communities present in the dictionary."""
        found: set[Community | LargeCommunity] = set()
        for community in communities.standard:
            if community in self._by_community:
                found.add(community)
        for large in communities.large:
            if large in self._by_community:
                found.add(large)
        return found

    def matcher(self) -> "CommunityMatcher":
        """A precompiled tag-match test over this dictionary's communities.

        Snapshot semantics: the matcher compiles the community key sets
        once, so entries added to the dictionary afterwards are not seen.
        The engine hot path builds one matcher per pass, which is exactly
        the pipeline's usage (dictionaries are immutable during a run).
        """
        return CommunityMatcher(self)

    # ------------------------------------------------------------------ #
    def documented_only(self) -> "BlackholeDictionary":
        return BlackholeDictionary(e for e in self.entries() if e.is_documented)

    def inferred_only(self) -> "BlackholeDictionary":
        return BlackholeDictionary(e for e in self.entries() if not e.is_documented)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BlackholeDictionary(communities={self.community_count()}, "
            f"providers={self.provider_count()})"
        )


class CommunityMatcher:
    """Precompiled "does any community hit the dictionary?" test.

    ``matches(cs)`` is exactly ``bool(dictionary.matched_communities(cs))``
    but runs as at most two frozenset disjointness checks against the
    compiled key sets instead of per-community dict probes.
    :meth:`flag_table` vectorises it over an interner's unique community
    sets: the verdict is computed once per *unique* interned set and cached
    in a byte table indexed by community id, so a whole batch's tag flags
    are one C-level gather over the ``community_ids`` column (the table is
    keyed to one interner and rebuilt whenever a batch from a different
    interner arrives).
    """

    __slots__ = ("_standard", "_large", "_table", "_interner")

    def __init__(self, dictionary: "BlackholeDictionary") -> None:
        communities = dictionary.communities()
        self._standard = frozenset(
            c for c in communities if isinstance(c, Community)
        )
        self._large = frozenset(
            c for c in communities if isinstance(c, LargeCommunity)
        )
        self._table = bytearray()
        self._interner: object = None

    def matches(self, communities: CommunitySet) -> bool:
        """True when any community of the set is in the dictionary."""
        if not self._standard.isdisjoint(communities.standard):
            return True
        return bool(self._large) and not self._large.isdisjoint(communities.large)

    def flag_table(self, interner) -> bytearray:
        """The per-unique-community-id match table for one interner.

        ``table[community_id]`` is ``1`` when any community of the interned
        set hits the dictionary, else ``0``.  The table extends lazily as
        the interner grows, so across a whole stream each unique community
        set is matched exactly once; applying it to a batch is
        ``map(table.__getitem__, batch.community_ids)`` -- no Python-level
        row loop.
        """
        if interner is not self._interner:
            self._table = bytearray()
            self._interner = interner
        table = self._table
        sets = interner.sets
        if len(table) < len(sets):
            matches = self.matches
            append = table.append
            for communities in sets[len(table):]:
                append(1 if matches(communities) else 0)
        return table

    def match_flags(self, batch) -> list[bool]:
        """Per-row tag-match verdicts for one batch's community column."""
        table = self.flag_table(batch.interner)
        return [flag == 1 for flag in map(table.__getitem__, batch.community_ids)]
