"""Columnar elem batches (struct-of-arrays view of the stream).

A :class:`ElemBatch` groups a chunk of consecutive :class:`StreamElem`\\ s
into parallel columns backed by typed buffers -- ``array('d')`` timestamps,
``array('B')`` elem-type codes and prefix lengths, ``array('Q')`` prefix
shard keys and interned-int id columns -- plus row-parallel lists for the
interned collector/peer strings and the prefix objects.  The hot consumers
(the inference engine's ``process_batch`` kernel, ``CommunityUsageStats
.observe_batch``, the execution plan's batch sharding) operate on the
columns directly, so per-elem Python dispatch, community matching, cleaning
verdicts and shard hashing amortise over whole batches:

* community sets are interned into dense integer ids by a
  :class:`CommunityInterner`, so dictionary matching and usage accounting
  run once per *unique* community set, not once per elem;
* ``(collector, peer_ip, prefix)`` triples are interned into dense integer
  ids by a :class:`PeerPrefixInterner`, so the engine keys its active-state
  index on plain ints and the cleaner memoises verdicts per unique id --
  both via byte tables indexed at C speed, with no 64-bit-key collision
  hazard (ids come from exact dict interning, not hashing);
* prefixes carry their :func:`prefix_shard_key` in a parallel ``array('Q')``
  column, so sharding a batch is C-level table lookups over the key buffer
  instead of a multiplicative hash over prefix fields per elem;
* the original elems stay available as a row column, so
  ``for elem in batch`` remains a drop-in elem-at-a-time view and any
  consumer that does not understand batches keeps working unchanged.

Every batch comes out of one builder, :class:`ColumnBuilder`, fed with
*row specs*: sources and the merger emit them
(:meth:`~repro.stream.merger.BgpStream.batches`,
:meth:`~repro.stream.source.CollectorSource.batches`), and
:func:`elem_specs` wraps an already-built elem iterable in them;
:func:`stream_batches` picks the right feed for whatever stream it is
given.

Two ingestion refinements keep batch *construction* as column-native as
batch *processing*:

* **Decoder-to-column building.**  A row spec is a plain tuple of the
  columnar field values plus a deferred ``StreamElem`` thunk, and the
  :class:`ColumnBuilder` assembles the typed columns straight from the
  fields (:func:`batch_specs`).  The ``elems`` column of every batch is a
  :class:`LazyRowColumn`: a ``StreamElem`` object is only constructed
  when a consumer actually indexes the row (the engine kernel does so
  solely for tagged announcements), and ``rows_materialised`` counts the
  thunks fired -- how few rows ever existed as objects.
* **Zero-copy contiguous selects.**  :meth:`ElemBatch.select` detects
  index sets that form one contiguous ascending run -- the single-shard
  and sorted-run splits of the execution plan -- and slices the typed
  columns through ``memoryview`` views (:meth:`ElemBatch.select_run`)
  instead of gathering row by row; lazy rows are never forced by a split
  (sub-batches share the parent's row cache and counter).
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import eq, itemgetter
from sys import intern
from typing import Callable, Iterable, Iterator, Sequence

from repro.bgp.community import CommunitySet
from repro.netutils.prefixes import Prefix
from repro.stream.record import ElemType, StreamElem

__all__ = [
    "BATCH_SIZE",
    "ColumnBuilder",
    "CommunityInterner",
    "ElemBatch",
    "LazyRowColumn",
    "PeerPrefixInterner",
    "RowSpec",
    "TYPE_ANNOUNCEMENT",
    "TYPE_RIB",
    "TYPE_WITHDRAWAL",
    "batch_specs",
    "elem_specs",
    "prefix_shard_key",
    "row_spec_sort_key",
    "spec_timestamp",
    "stream_batches",
]

#: Rows per :class:`ElemBatch` in every production pass.  Columnar dispatch
#: is the only way elems reach the engines, and at this size a sweep's
#: dispatch counters equal ``tests/golden/sweep_batched.json``.
BATCH_SIZE = 512

#: Elem-type codes of the ``type_codes`` column (cheap int compares in the
#: dispatch loops instead of enum identity checks).
TYPE_RIB = 0
TYPE_ANNOUNCEMENT = 1
TYPE_WITHDRAWAL = 2

_TYPE_CODES = {
    ElemType.RIB: TYPE_RIB,
    ElemType.ANNOUNCEMENT: TYPE_ANNOUNCEMENT,
    ElemType.WITHDRAWAL: TYPE_WITHDRAWAL,
}

#: type code -> ``ElemType.value`` string, for spec-level sort keys that
#: must order exactly like :meth:`StreamElem.sort_key`.
_TYPE_VALUES = {code: elem_type.value for elem_type, code in _TYPE_CODES.items()}

#: One not-yet-materialised batch row: the columnar field values plus a
#: zero-argument thunk that builds the :class:`StreamElem` on demand.
#: Layout: ``(timestamp, type_code, project, collector, peer_ip, prefix,
#: communities, make_row)``.  Sources emit these instead of elems so the
#: typed columns can be assembled without constructing a row object.
RowSpec = tuple[
    float, int, str, str, str, Prefix, CommunitySet, Callable[[], StreamElem]
]

#: ``spec[0]`` -- the timestamp, the update-merge ordering key.
spec_timestamp = itemgetter(0)


def row_spec_sort_key(spec: RowSpec) -> tuple:
    """The :meth:`StreamElem.sort_key` of a spec, without building the row.

    Field for field this is ``(timestamp, project, collector, peer_ip,
    prefix, elem_type.value)``, so sorting or heap-merging specs with this
    key yields exactly the order of sorting the materialised elems with
    ``StreamElem.sort_key``.
    """
    return (spec[0], spec[2], spec[3], spec[4], spec[5], _TYPE_VALUES[spec[1]])


def elem_specs(elems: Iterable[StreamElem]) -> Iterator[RowSpec]:
    """Wrap already-built elems as row specs whose thunk returns the elem.

    The feed that takes a bare elem iterable (or an elem-filtered stream)
    through :class:`ColumnBuilder`; firing a thunk builds nothing.
    """
    type_codes = _TYPE_CODES
    for elem in elems:
        yield (
            elem.timestamp,
            type_codes[elem.elem_type],
            elem.project,
            elem.collector,
            elem.peer_ip,
            elem.prefix,
            elem.communities,
            lambda elem=elem: elem,
        )


#: 64-bit mask of the shard-key mixing arithmetic (kept in lockstep with
#: :func:`repro.exec.plan.shard_of`, which consumes these keys).
_KEY_MASK = (1 << 64) - 1


def prefix_shard_key(prefix: Prefix) -> int:
    """The shard-hash input of a prefix, as pure integer arithmetic.

    This is the "prefix int" of the columnar layout: :func:`repro.exec.plan
    .shard_of` finishes the Knuth multiplicative hash over exactly this
    value, so a batch's precomputed key column yields the same shard
    assignment as hashing the prefix objects elem by elem.
    """
    return ((prefix.network * 31 + prefix.length) * 127 + prefix.family) & _KEY_MASK


class CommunityInterner:
    """Dense integer ids for distinct :class:`CommunitySet` values.

    Streams repeat the same community sets constantly (every
    re-announcement, every RIB entry of a provider), so consumers memoise
    their per-set work -- dictionary tag matching, documented-membership
    flags -- keyed by the interned id.  Ids are only comparable within one
    interner; batch consumers key their memos on the interner instance and
    reset when a batch from a different interner arrives.
    """

    __slots__ = ("_ids", "sets")

    def __init__(self) -> None:
        self._ids: dict[CommunitySet, int] = {}
        #: id -> canonical CommunitySet (the first equal set seen).
        self.sets: list[CommunitySet] = []

    def intern(self, communities: CommunitySet) -> int:
        found = self._ids.get(communities)
        if found is None:
            found = self._ids[communities] = len(self.sets)
            self.sets.append(communities)
        return found

    def __len__(self) -> int:
        return len(self.sets)


class PeerPrefixInterner:
    """Dense integer ids for distinct ``(collector, peer_ip, prefix)`` triples.

    The engine keys all of its active-observation state on these triples;
    interning them once at batch-construction time turns the per-row state
    probes of the batch kernel into byte-table lookups over an int column.
    Ids are append-only and interner-scoped, exactly like
    :class:`CommunityInterner` ids; they are exact (dict-interned), so two
    distinct triples can never share an id.
    """

    __slots__ = ("_ids", "triples")

    def __init__(self) -> None:
        self._ids: dict[tuple[str, str, Prefix], int] = {}
        #: id -> canonical (collector, peer_ip, prefix) triple.
        self.triples: list[tuple[str, str, Prefix]] = []

    def intern(self, triple: tuple[str, str, Prefix]) -> int:
        found = self._ids.get(triple)
        if found is None:
            found = self._ids[triple] = len(self.triples)
            self.triples.append(triple)
        return found

    def __len__(self) -> int:
        return len(self.triples)


class LazyRowColumn:
    """The ``elems`` column of a builder-made batch: rows built on demand.

    Holds one provider thunk per row; ``column[i]`` invokes the thunk on
    first access, caches the :class:`StreamElem`, and bumps
    :attr:`materialised`.  Iteration materialises every row (that is the
    elem-at-a-time compatibility view); the column-native consumers never
    iterate it, they index only the rows they actually need.
    """

    __slots__ = ("_providers", "_rows", "materialised")

    def __init__(self, providers: list[Callable[[], StreamElem]]) -> None:
        self._providers = providers
        self._rows: list[StreamElem | None] = [None] * len(providers)
        #: Count of provider invocations (rows that exist as objects).
        self.materialised = 0

    def __len__(self) -> int:
        return len(self._providers)

    def __getitem__(self, index: int) -> StreamElem:
        row = self._rows[index]
        if row is None:
            row = self._rows[index] = self._providers[index]()
            self.materialised += 1
        return row

    def __iter__(self) -> Iterator[StreamElem]:
        for index in range(len(self._providers)):
            yield self[index]

    def view(self, indices: Sequence[int]) -> "_LazyRowView":
        """A sub-column of the given row indices, sharing this cache.

        The view holds only the index sequence (a ``range`` for contiguous
        runs -- zero-copy); no row is materialised by creating it.
        """
        return _LazyRowView(self, indices)


class _LazyRowView:
    """A reindexed window onto a :class:`LazyRowColumn`.

    Sub-batches made by :meth:`ElemBatch.select` use this so splitting a
    lazy batch never forces rows, and rows materialised through any view
    land in (and count against) the parent column's single cache.
    """

    __slots__ = ("_parent", "_indices")

    def __init__(
        self, parent: "LazyRowColumn | _LazyRowView", indices: Sequence[int]
    ) -> None:
        self._parent = parent
        self._indices = indices

    @property
    def materialised(self) -> int:
        return self._parent.materialised

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, index: int) -> StreamElem:
        return self._parent[self._indices[index]]

    def __iter__(self) -> Iterator[StreamElem]:
        parent = self._parent
        for index in self._indices:
            yield parent[index]

    def view(self, indices: Sequence[int]) -> "_LazyRowView":
        own = self._indices
        if isinstance(indices, range) and isinstance(own, range):
            composed: Sequence[int] = own[indices.start : indices.stop]
        else:
            composed = [own[index] for index in indices]
        return _LazyRowView(self._parent, composed)


def _column_view(column, start: int, stop: int):
    """Zero-copy slice of a typed column (re-slices existing views)."""
    if type(column) is not memoryview:
        column = memoryview(column)
    return column[start:stop]


class ElemBatch:
    """One chunk of the elem stream in columnar (struct-of-arrays) form.

    All columns are parallel buffers of equal length; ``elems[i]`` is the
    row view of column index ``i``.  Batches are immutable by convention --
    consumers only read the columns.

    Typed columns are ``array`` objects on freshly built batches and
    zero-copy ``memoryview`` slices on contiguous sub-batches; the
    ``elems`` column is a :class:`LazyRowColumn`, or a view of one on
    sub-batches.
    """

    __slots__ = (
        "elems",
        "timestamps",
        "type_codes",
        "collectors",
        "peer_ips",
        "prefixes",
        "prefix_lengths",
        "prefix_keys",
        "community_ids",
        "peer_prefix_ids",
        "interner",
        "peer_interner",
    )

    def __init__(
        self,
        elems: "LazyRowColumn | _LazyRowView",
        timestamps: array,
        type_codes: array,
        collectors: list[str],
        peer_ips: list[str],
        prefixes: list[Prefix],
        prefix_lengths: array,
        prefix_keys: array,
        community_ids: array,
        peer_prefix_ids: array,
        interner: CommunityInterner,
        peer_interner: PeerPrefixInterner,
    ) -> None:
        self.elems = elems
        self.timestamps = timestamps
        self.type_codes = type_codes
        self.collectors = collectors
        self.peer_ips = peer_ips
        self.prefixes = prefixes
        self.prefix_lengths = prefix_lengths
        self.prefix_keys = prefix_keys
        self.community_ids = community_ids
        self.peer_prefix_ids = peer_prefix_ids
        self.interner = interner
        self.peer_interner = peer_interner

    # ------------------------------------------------------------------ #
    @classmethod
    def from_elems(
        cls,
        elems: Iterable[StreamElem],
        interner: CommunityInterner | None = None,
        peer_interner: PeerPrefixInterner | None = None,
    ) -> "ElemBatch":
        """Columnarise a chunk of elems through :class:`ColumnBuilder`.

        Pass shared interners when building several batches of one stream
        so community and peer-prefix ids (and the consumers' memos and
        byte tables keyed on them) stay stable across the whole pass.
        """
        builder = ColumnBuilder(interner, peer_interner)
        builder.extend(elem_specs(elems))
        return builder.build()

    def select(self, indices: Sequence[int]) -> "ElemBatch":
        """A sub-batch of the given row indices (shares the interners).

        Used by the execution plan to shard one batch into per-worker
        sub-batches via the precomputed ``prefix_keys`` column.  Indices
        forming one contiguous ascending run -- the common single-shard and
        sorted-run case -- are served by :meth:`select_run`, which slices
        the typed columns through zero-copy ``memoryview`` views.  Otherwise
        one index buffer drives every column: each gather is a C-level
        ``map(column.__getitem__, indices)`` pass, so the split costs O(1)
        Python frames per column rather than one comprehension frame per
        row per column.  Lazy row columns are never forced either way --
        sub-batches get a reindexing view over the parent's row cache.
        """
        count = len(indices)
        if count:
            first = indices[0]
            if indices[count - 1] - first == count - 1 and (
                (isinstance(indices, range) and indices.step == 1)
                or all(map(eq, indices, range(first, first + count)))
            ):
                return self.select_run(first, first + count)
        return ElemBatch(
            elems=self.elems.view(indices),
            timestamps=array("d", map(self.timestamps.__getitem__, indices)),
            type_codes=array("B", map(self.type_codes.__getitem__, indices)),
            collectors=list(map(self.collectors.__getitem__, indices)),
            peer_ips=list(map(self.peer_ips.__getitem__, indices)),
            prefixes=list(map(self.prefixes.__getitem__, indices)),
            prefix_lengths=array("B", map(self.prefix_lengths.__getitem__, indices)),
            prefix_keys=array("Q", map(self.prefix_keys.__getitem__, indices)),
            community_ids=array("Q", map(self.community_ids.__getitem__, indices)),
            peer_prefix_ids=array(
                "Q", map(self.peer_prefix_ids.__getitem__, indices)
            ),
            interner=self.interner,
            peer_interner=self.peer_interner,
        )

    def select_run(self, start: int, stop: int) -> "ElemBatch":
        """Zero-copy sub-batch of the contiguous row run ``[start, stop)``.

        Typed columns become ``memoryview`` slices over the parent buffers
        (no bytes move), list columns use plain list slices, and a lazy
        ``elems`` column becomes a range view sharing the parent's cache --
        no row is materialised by taking the run.
        """
        return ElemBatch(
            elems=self.elems.view(range(start, stop)),
            timestamps=_column_view(self.timestamps, start, stop),
            type_codes=_column_view(self.type_codes, start, stop),
            collectors=self.collectors[start:stop],
            peer_ips=self.peer_ips[start:stop],
            prefixes=self.prefixes[start:stop],
            prefix_lengths=_column_view(self.prefix_lengths, start, stop),
            prefix_keys=_column_view(self.prefix_keys, start, stop),
            community_ids=_column_view(self.community_ids, start, stop),
            peer_prefix_ids=_column_view(self.peer_prefix_ids, start, stop),
            interner=self.interner,
            peer_interner=self.peer_interner,
        )

    @property
    def rows_materialised(self) -> int:
        """How many row thunks of this batch's column have fired.

        The count is shared with every sub-view of the same parent column.
        """
        return self.elems.materialised

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[StreamElem]:
        """The elem-at-a-time view: iterate the original rows."""
        return iter(self.elems)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ElemBatch(len={len(self.elems)}, interned={len(self.interner)}, "
            f"peer_prefixes={len(self.peer_interner)})"
        )


def stream_batches(
    stream, batch_size: int = BATCH_SIZE, prefix_filter=None
) -> Iterable[ElemBatch]:
    """Columnar batches of any stream, restricted to ``prefix_filter``.

    A stream with its own ``batches`` method (a source or a
    :class:`~repro.stream.merger.BgpStream`) builds them from its row
    specs.  A bare elem iterable goes through :func:`elem_specs`; it cannot
    be filtered, so ``prefix_filter`` only applies to streams.
    """
    batches = getattr(stream, "batches", None)
    if callable(batches):
        return batches(batch_size, prefix_filter)
    return batch_specs(elem_specs(stream), batch_size)


class ColumnBuilder:
    """Assembly of :class:`ElemBatch` columns from row specs.

    The one batch builder: callers :meth:`extend` it with :data:`RowSpec`
    tuples, and :meth:`build` snapshots the pending specs into one batch --
    typed columns filled by bulk comprehensions over the spec fields, the
    ``elems`` column a :class:`LazyRowColumn` over the deferred row
    thunks.  No ``StreamElem`` is constructed at build time.  One builder carries one
    interner pair, so every batch it builds shares stable community and
    peer-prefix ids.
    """

    __slots__ = ("interner", "peer_interner", "_specs")

    def __init__(
        self,
        interner: CommunityInterner | None = None,
        peer_interner: PeerPrefixInterner | None = None,
    ) -> None:
        self.interner = interner if interner is not None else CommunityInterner()
        self.peer_interner = (
            peer_interner if peer_interner is not None else PeerPrefixInterner()
        )
        self._specs: list[RowSpec] = []

    def extend(self, specs: Iterable[RowSpec]) -> None:
        self._specs.extend(specs)

    def __len__(self) -> int:
        return len(self._specs)

    def build(self) -> ElemBatch:
        """Drain the pending specs into one lazy-row batch."""
        specs, self._specs = self._specs, []
        intern_set = self.interner.intern
        intern_peer = self.peer_interner.intern
        prefixes = [spec[5] for spec in specs]
        return ElemBatch(
            elems=LazyRowColumn([spec[7] for spec in specs]),
            timestamps=array("d", [spec[0] for spec in specs]),
            type_codes=array("B", [spec[1] for spec in specs]),
            collectors=[intern(spec[3]) for spec in specs],
            peer_ips=[intern(spec[4]) for spec in specs],
            prefixes=prefixes,
            prefix_lengths=array("B", [prefix.length for prefix in prefixes]),
            prefix_keys=array("Q", map(prefix_shard_key, prefixes)),
            community_ids=array("Q", [intern_set(spec[6]) for spec in specs]),
            peer_prefix_ids=array(
                "Q",
                [intern_peer((spec[3], spec[4], spec[5])) for spec in specs],
            ),
            interner=self.interner,
            peer_interner=self.peer_interner,
        )


def batch_specs(
    specs: Iterable[RowSpec],
    batch_size: int,
    interner: CommunityInterner | None = None,
    peer_interner: PeerPrefixInterner | None = None,
) -> Iterator[ElemBatch]:
    """Chunk a row-spec iterable into lazy-row batches of ``batch_size``.

    Chunk boundaries equal ``itertools.islice`` chunking of the same
    iterable, so batched and elem-at-a-time consumers see the rows in
    exactly the same order.  One interner pair (shared or fresh) serves
    every batch of the iteration, and rows stay unmaterialised until a
    consumer indexes them.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    builder = ColumnBuilder(interner, peer_interner)
    iterator = iter(specs)
    while chunk := list(islice(iterator, batch_size)):
        builder.extend(chunk)
        yield builder.build()
