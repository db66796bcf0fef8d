"""Multi-source, time-ordered stream merge.

:class:`BgpStream` is the reproduction's equivalent of instantiating
BGPStream over several projects/collectors at once: all sources' RIB elems
are emitted first (initialisation), then the per-collector update streams
are merged by timestamp with a k-way heap merge, optionally passing through
filters.

Both phases work on the sources' row specs, so batches and elems share one
ordering: the RIB phase is one stable sort over every source's table-dump
specs in source order (bounded by the dumps, which are resident in their
sources anyway), and the update merge is fully incremental -- the much
larger update stream is heap-merged lazily and never held as a list.  The
elem iterators fire each spec's row thunk and then apply the elem filters.
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
    batch_specs,
    elem_specs,
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
) -> Iterator[RowSpec]:
    """Merge the update specs of several sources in timestamp order.

    Within one source, relative order is preserved; across sources, ties on
    timestamp are broken by source order (``heapq.merge`` is stable), so the
    merge is deterministic.  ``prefix_filter`` restricts the merge to one
    shard's prefixes without constructing elems for the rest.
    """
    # heapq.merge needs pre-sorted runs; each source is already time sorted,
    # so merge the per-source generators directly.
    runs = [source.update_specs(prefix_filter) for source in sources]
    return heapq.merge(*runs, key=spec_timestamp)


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
    def _rib_specs(self, prefix_filter: PrefixPredicate | None) -> list[RowSpec]:
        """All sources' RIB specs, in deterministic order.

        One stable sort over the dumps in source order, so ties keep
        source order and then dump order.  :func:`row_spec_sort_key`
        mirrors ``StreamElem.sort_key`` field for field, so no row is
        materialised to establish the order.
        """
        dumps = chain.from_iterable(
            source.rib_specs(prefix_filter) for source in self.sources
        )
        return sorted(dumps, key=row_spec_sort_key)

    def _filtered(self, specs: Iterable[RowSpec]) -> Iterator[StreamElem]:
        """Fire each spec's row thunk; keep the elems every filter passes."""
        filters = self.filters
        for spec in specs:
            elem = spec[7]()
            if all(f(elem) for f in filters):
                yield elem

    def rib_elems(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[StreamElem]:
        """All sources' RIB elems, in deterministic order."""
        yield from self._filtered(self._rib_specs(prefix_filter))

    def updates(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[StreamElem]:
        """Merged announcement/withdrawal elems, in time order."""
        return self._filtered(merge_sources(self.sources, prefix_filter))

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

        Only valid on unfiltered streams -- elem filters need elems.
        """
        yield from self._rib_specs(prefix_filter)
        yield from merge_sources(self.sources, prefix_filter)

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
        :meth:`row_specs` (lazy rows); elem filters inspect ``StreamElem``
        objects, so a filtered stream's kept elems are wrapped back into
        specs (:func:`~repro.stream.batch.elem_specs`).
        """
        specs = (
            elem_specs(self.elems(prefix_filter))
            if self.filters
            else self.row_specs(prefix_filter)
        )
        return batch_specs(specs, batch_size, interner, peer_interner)

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
