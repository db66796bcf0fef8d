"""The column check shared by the batch tests.

Every batch comes out of one builder, so comparing two batches of the same
rows would compare the builder with itself.  :func:`assert_columns_match_rows`
instead holds each column to the matching field of the batch's
materialised rows, recomputed here from the rows alone.
"""

from __future__ import annotations

from repro.stream.batch import (
    TYPE_ANNOUNCEMENT,
    TYPE_RIB,
    TYPE_WITHDRAWAL,
    CommunityInterner,
    PeerPrefixInterner,
    prefix_shard_key,
)
from repro.stream.record import ElemType

_TYPE_CODES = {
    ElemType.RIB: TYPE_RIB,
    ElemType.ANNOUNCEMENT: TYPE_ANNOUNCEMENT,
    ElemType.WITHDRAWAL: TYPE_WITHDRAWAL,
}


def assert_columns_match_rows(batches, batch_size=None) -> list:
    """Check every column of one pass's batches; return the rows in order.

    ``batches`` share one interner pair, fresh at the start of the pass:
    their community and peer-prefix ids must equal the ids fresh
    interners assign to the rows' fields in stream order.  With
    ``batch_size``, the chunk boundaries must equal ``islice`` chunking:
    every batch full except a non-empty last one.
    """
    communities = CommunityInterner()
    peer_prefixes = PeerPrefixInterner()
    rows = []
    for index, batch in enumerate(batches):
        assert batch.interner is batches[0].interner
        assert batch.peer_interner is batches[0].peer_interner
        if batch_size is not None:
            last = index == len(batches) - 1
            assert 0 < len(batch) <= batch_size if last else len(batch) == batch_size
        chunk = list(batch)
        assert len(chunk) == len(batch)
        assert list(batch.timestamps) == [row.timestamp for row in chunk]
        assert list(batch.type_codes) == [_TYPE_CODES[row.elem_type] for row in chunk]
        assert batch.collectors == [row.collector for row in chunk]
        assert batch.peer_ips == [row.peer_ip for row in chunk]
        assert batch.prefixes == [row.prefix for row in chunk]
        assert list(batch.prefix_lengths) == [row.prefix.length for row in chunk]
        assert list(batch.prefix_keys) == [prefix_shard_key(row.prefix) for row in chunk]
        assert list(batch.community_ids) == [
            communities.intern(row.communities) for row in chunk
        ]
        assert list(batch.peer_prefix_ids) == [
            peer_prefixes.intern((row.collector, row.peer_ip, row.prefix))
            for row in chunk
        ]
        rows += chunk
    if batches:
        assert batches[0].interner.sets == communities.sets
        assert batches[0].peer_interner.triples == peer_prefixes.triples
    return rows
