"""Multi-source, time-ordered stream merge.

:class:`BgpStream` is the reproduction's equivalent of instantiating
BGPStream over several projects/collectors at once: all sources' RIB elems
are emitted first (initialisation), then the per-collector update streams
are merged by timestamp with a k-way heap merge, optionally passing through
filters.

The update merge is fully incremental: the much larger update stream is
heap-merged lazily and never held as a list.  The RIB phase is one stable
sort over every source's table dump in source order (bounded by the dumps,
which are resident in their sources anyway).
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterable, Iterator, Sequence

from repro.stream.batch import (
    CommunityInterner,
    ElemBatch,
    PeerPrefixInterner,
    RowSpec,
    batch_elems,
    batch_specs,
    row_spec_sort_key,
    spec_timestamp,
)
from repro.stream.filters import ElemFilter
from repro.stream.record import StreamElem
from repro.stream.source import CollectorSource, MrtSource, PrefixPredicate

__all__ = ["BgpStream", "merge_sources"]

Source = CollectorSource | MrtSource


def merge_sources(
    sources: Sequence[Source],
    prefix_filter: PrefixPredicate | None = None,
) -> Iterator[StreamElem]:
    """Merge the update streams of several sources in timestamp order.

    Within one source, relative order is preserved; across sources, ties on
    timestamp are broken by source order (``heapq.merge`` is stable), so the
    merge is deterministic.  ``prefix_filter`` restricts the merge to one
    shard's prefixes without constructing elems for the rest.
    """
    # heapq.merge needs pre-sorted runs; each source is already time sorted,
    # so merge the per-source generators directly.
    runs = [source.update_stream(prefix_filter) for source in sources]
    return heapq.merge(*runs, key=lambda elem: elem.timestamp)


class BgpStream:
    """A filtered, merged view over several collector sources.

    Usage mirrors the real BGPStream workflow used in the paper::

        stream = BgpStream(sources, filters=[TimeWindowFilter(start, end)])
        engine.run(stream)

    Iteration yields RIB elems (from every source's table dump) first, then
    merged updates.
    """

    def __init__(
        self,
        sources: Iterable[Source],
        filters: Sequence[ElemFilter] = (),
    ) -> None:
        self.sources = list(sources)
        self.filters = list(filters)

    # ------------------------------------------------------------------ #
    def _passes(self, elem: StreamElem) -> bool:
        return all(f(elem) for f in self.filters)

    def rib_elems(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[StreamElem]:
        """All sources' RIB elems, in deterministic order.

        One stable sort over the dumps in source order, so ties keep
        source order and then dump order, and each key is computed once
        per row.
        """
        dumps = chain.from_iterable(
            source.rib_elems(prefix_filter) for source in self.sources
        )
        for elem in sorted(dumps, key=StreamElem.sort_key):
            if self._passes(elem):
                yield elem

    def updates(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[StreamElem]:
        """Merged announcement/withdrawal elems, in time order."""
        for elem in merge_sources(self.sources, prefix_filter):
            if self._passes(elem):
                yield elem

    def elems(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[StreamElem]:
        """RIB elems first, then merged updates (one shard if filtered)."""
        yield from self.rib_elems(prefix_filter)
        yield from self.updates(prefix_filter)

    def row_specs(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[RowSpec]:
        """The merged stream as row specs, in exactly :meth:`elems` order.

        Sort and merge keys are computed from the spec fields
        (:func:`row_spec_sort_key` mirrors ``StreamElem.sort_key`` field
        for field; updates merge on the spec timestamp with the same
        stable tie-break), so no row is materialised to establish order.
        Only valid on unfiltered streams -- elem filters need elems.
        """
        dumps = chain.from_iterable(
            source.rib_specs(prefix_filter) for source in self.sources
        )
        yield from sorted(dumps, key=row_spec_sort_key)
        update_runs = [source.update_specs(prefix_filter) for source in self.sources]
        yield from heapq.merge(*update_runs, key=spec_timestamp)

    def batches(
        self,
        batch_size: int,
        prefix_filter: PrefixPredicate | None = None,
        interner: CommunityInterner | None = None,
        peer_interner: PeerPrefixInterner | None = None,
    ) -> Iterator[ElemBatch]:
        """The merged stream in columnar chunks of ``batch_size`` elems.

        Chunk boundaries equal ``islice`` chunking of :meth:`elems`, so
        batched consumers observe exactly the elem-at-a-time order.  On
        unfiltered streams the chunks are built decoder-to-column from
        :meth:`row_specs` (lazy rows); elem filters force the eager
        per-elem path, since they inspect ``StreamElem`` objects.
        """
        if self.filters or not all(
            hasattr(source, "row_specs") for source in self.sources
        ):
            return batch_elems(
                self.elems(prefix_filter), batch_size, interner, peer_interner
            )
        return batch_specs(
            self.row_specs(prefix_filter), batch_size, interner, peer_interner
        )

    def __iter__(self) -> Iterator[StreamElem]:
        return self.elems()

    # ------------------------------------------------------------------ #
    def projects(self) -> set[str]:
        return {source.project for source in self.sources}

    def collectors(self) -> set[str]:
        return {source.collector for source in self.sources}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BgpStream(sources={len(self.sources)}, filters={len(self.filters)}, "
            f"projects={sorted(self.projects())})"
        )
