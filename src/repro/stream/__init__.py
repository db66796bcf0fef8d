"""BGPStream-like streaming layer.

The paper consumes RIPE RIS and RouteViews through the BGPStream API and
PCH/CDN data through custom parsers; all four are then processed as one
time-ordered stream of *elems*.  This package reproduces that layer:

* :mod:`repro.stream.record` -- :class:`StreamElem`, the normalised view of
  one announcement/withdrawal as seen at one collector peer.
* :mod:`repro.stream.batch` -- :class:`ElemBatch`, the columnar
  (struct-of-arrays) chunked view of the stream the hot consumers operate
  on: parallel columns of timestamps, elem-type codes, interned strings,
  prefix shard keys and interned community-set ids; and
  :class:`ColumnBuilder`, the one builder every batch comes out of.
* :mod:`repro.stream.source` -- per-collector sources backed by in-memory
  message lists or MRT byte archives (RIB snapshot + update stream).
  Sources produce *row specs* (columnar fields plus a deferred
  ``StreamElem`` thunk); batches are built from them, and every elem
  iterator fires their thunks.
* :mod:`repro.stream.merger` -- the multi-source, time-ordered merge, over
  the same specs.
* :mod:`repro.stream.filters` -- composable elem filters (time window,
  collectors, prefix specificity, community match).
"""

from repro.stream.batch import (
    ColumnBuilder,
    CommunityInterner,
    ElemBatch,
    LazyRowColumn,
    PeerPrefixInterner,
    batch_specs,
    elem_specs,
    prefix_shard_key,
    row_spec_sort_key,
)
from repro.stream.filters import (
    CollectorFilter,
    CommunityFilter,
    ElemFilter,
    PrefixLengthFilter,
    TimeWindowFilter,
    compose_filters,
)
from repro.stream.merger import BgpStream, merge_sources
from repro.stream.record import ElemType, StreamElem
from repro.stream.source import CollectorSource, MrtSource

__all__ = [
    "BgpStream",
    "CollectorFilter",
    "ColumnBuilder",
    "CommunityInterner",
    "ElemBatch",
    "LazyRowColumn",
    "PeerPrefixInterner",
    "batch_specs",
    "elem_specs",
    "prefix_shard_key",
    "row_spec_sort_key",
    "CollectorSource",
    "CommunityFilter",
    "ElemFilter",
    "ElemType",
    "MrtSource",
    "PrefixLengthFilter",
    "StreamElem",
    "TimeWindowFilter",
    "compose_filters",
    "merge_sources",
]
