"""Stream sources.

A source couples one collector's data -- an optional initial RIB snapshot
plus a time-ordered update stream -- with the project name it belongs to
(``"ris"``, ``"routeviews"``, ``"pch"``, ``"cdn"``).  Two backends are
provided:

* :class:`CollectorSource` -- in-memory message lists (the routing simulator
  hands these over directly);
* :class:`MrtSource` -- MRT byte archives, decoded lazily via
  :mod:`repro.mrt.reader`, mirroring how the real study parsed archived
  collector files.

Each backend produces one thing: *row specs* (``rib_specs`` /
``update_specs`` / ``row_specs``), the columnar fields of a row plus a
thunk that builds its :class:`StreamElem`.  Batches are built from them,
and every elem iterator (``rib_elems`` / ``update_stream`` /
``all_elems``) is just the same specs with each thunk fired.  Specs are
emitted *incrementally*: iteration never materialises a source's full
stream, and an optional ``prefix_filter`` predicate lets shard-parallel
execution (:mod:`repro.exec`) skip non-shard messages before the
comparatively expensive :class:`StreamElem` construction.  Both backends
also answer ``peer_sets()`` (the peer IPs, peer ASes and prefixes Table 1
counts) from the raw message or row fields, without building an elem.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.bgp.community import CommunitySet
from repro.bgp.message import BgpMessage, BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib
from repro.mrt.reader import MrtReader
from repro.netutils.prefixes import Prefix
from repro.stream.batch import (
    TYPE_ANNOUNCEMENT,
    TYPE_RIB,
    TYPE_WITHDRAWAL,
    CommunityInterner,
    ElemBatch,
    PeerPrefixInterner,
    RowSpec,
    batch_specs,
)
from repro.stream.record import ElemType, StreamElem

__all__ = [
    "CollectorSource",
    "MrtSource",
    "PeerSets",
    "PrefixPredicate",
    "message_specs",
]

#: Predicate deciding whether a prefix belongs to the caller's shard.
PrefixPredicate = Callable[[Prefix], bool]

#: A source's peer IPs, peer ASes and prefixes (see ``peer_sets``).
PeerSets = tuple[set[str], set[int], set[Prefix]]

_EMPTY_COMMUNITIES = CommunitySet()


def message_specs(
    messages: Iterable[BgpMessage],
    project: str,
    rib: bool = False,
    prefix_filter: PrefixPredicate | None = None,
) -> Iterator[RowSpec]:
    """Lazily convert BGP messages into row specs -- no elems built.

    The columnar fields are read straight off the message, and the
    ``StreamElem`` construction is deferred into the spec's row thunk
    (invoking it yields exactly ``StreamElem.from_message`` of the same
    message).  ``rib=True`` marks announcements as RIB entries.
    """
    from_message = StreamElem.from_message
    rib_type = ElemType.RIB if rib else None
    announce_code = TYPE_RIB if rib else TYPE_ANNOUNCEMENT
    for message in messages:
        prefix = message.prefix
        if prefix_filter is not None and not prefix_filter(prefix):
            continue
        if isinstance(message, BgpUpdate):
            code = announce_code
            communities = message.attributes.communities
        elif isinstance(message, BgpWithdrawal):
            # from_message ignores elem_type for withdrawals; so do we.
            code = TYPE_WITHDRAWAL
            communities = _EMPTY_COMMUNITIES
        else:
            raise TypeError(f"unsupported message type {type(message)!r}")
        yield (
            message.timestamp,
            code,
            project,
            message.collector,
            message.peer_ip,
            prefix,
            communities,
            lambda message=message: from_message(message, project, rib_type),
        )


# The spec-derived methods both source types share.  Each class binds them
# in its own body instead of inheriting them from a base class, because
# benchmarks/harness/tracer.py patches methods through the class's own
# ``__dict__``.
def _rib_elems(
    self, prefix_filter: PrefixPredicate | None = None
) -> Iterator[StreamElem]:
    """RIB elems from the initial table dump (possibly empty)."""
    for spec in self.rib_specs(prefix_filter):
        yield spec[7]()


def _update_stream(
    self, prefix_filter: PrefixPredicate | None = None
) -> Iterator[StreamElem]:
    """Announcement/withdrawal elems in time order."""
    for spec in self.update_specs(prefix_filter):
        yield spec[7]()


def _all_elems(
    self, prefix_filter: PrefixPredicate | None = None
) -> Iterator[StreamElem]:
    """RIB elems first, then the update stream."""
    for spec in self.row_specs(prefix_filter):
        yield spec[7]()


def _row_specs(
    self, prefix_filter: PrefixPredicate | None = None
) -> Iterator[RowSpec]:
    """Row specs of the RIB dump, then of the update stream."""
    yield from self.rib_specs(prefix_filter)
    yield from self.update_specs(prefix_filter)


def _batches(
    self,
    batch_size: int,
    prefix_filter: PrefixPredicate | None = None,
    interner: CommunityInterner | None = None,
    peer_interner: PeerPrefixInterner | None = None,
) -> Iterator[ElemBatch]:
    """This source's rows in columnar chunks of ``batch_size``.

    Built decoder-to-column: the typed columns are assembled straight
    from row specs and the ``elems`` column stays lazy -- a row is only
    materialised if a consumer indexes it.
    """
    return batch_specs(
        self.row_specs(prefix_filter), batch_size, interner, peer_interner
    )


class CollectorSource:
    """An in-memory source for one collector.

    Parameters
    ----------
    project:
        Dataset/platform name (``"ris"``, ``"routeviews"``, ``"pch"``,
        ``"cdn"``).
    collector:
        Collector name (``"rrc00"``, ``"route-views2"``, ...).
    rib:
        Optional initial RIB snapshot (:class:`~repro.bgp.rib.Rib` or a list
        of dump announcements).
    updates:
        The update stream for the monitoring period (any iterable; it is
        consumed once at construction and kept sorted by timestamp).
    """

    def __init__(
        self,
        project: str,
        collector: str,
        rib: Rib | Sequence[BgpUpdate] | None = None,
        updates: Iterable[BgpMessage] = (),
    ) -> None:
        self.project = project
        self.collector = collector
        if isinstance(rib, Rib):
            self._dump = rib.dump()
        else:
            self._dump = list(rib or [])
        self._updates = sorted(updates, key=lambda m: m.timestamp)

    def peer_sets(self) -> PeerSets:
        """The peer IPs, peer ASes and prefixes of :meth:`all_elems`.

        Read straight off the dump and update messages, withdrawals
        included; no elem is built.
        """
        messages = self._dump + self._updates
        return (
            {message.peer_ip for message in messages},
            {message.peer_as for message in messages},
            {message.prefix for message in messages},
        )

    def rib_specs(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[RowSpec]:
        """Row specs of the table dump (rows deferred)."""
        return message_specs(self._dump, self.project, rib=True, prefix_filter=prefix_filter)

    def update_specs(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[RowSpec]:
        """Row specs of the time-sorted updates (rows deferred)."""
        return message_specs(self._updates, self.project, prefix_filter=prefix_filter)

    rib_elems = _rib_elems
    update_stream = _update_stream
    all_elems = _all_elems
    row_specs = _row_specs
    batches = _batches

    def __len__(self) -> int:
        return len(self._dump) + len(self._updates)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CollectorSource(project={self.project!r}, collector={self.collector!r}, "
            f"dump={len(self._dump)}, updates={len(self._updates)})"
        )


class MrtSource:
    """A source backed by MRT byte archives.

    The RIB archive (TABLE_DUMP_V2) and update archive (BGP4MP) are decoded
    lazily on iteration so large archives never need to be held twice in
    memory.  Every scan builds a fresh :class:`~repro.mrt.reader.MrtReader`,
    so its per-scan memos (attribute blobs, peer addresses) die with the
    scan, and a ``prefix_filter`` is applied inside the reader, before a
    rejected message's attributes are decoded.
    """

    def __init__(
        self,
        project: str,
        collector: str,
        rib_bytes: bytes | None = None,
        update_bytes: bytes | None = None,
    ) -> None:
        self.project = project
        self.collector = collector
        self._rib_bytes = rib_bytes
        self._update_bytes = update_bytes

    def peer_sets(self) -> PeerSets:
        """The peer IPs, peer ASes and prefixes of :meth:`all_elems`.

        Taken from the reader's decoded rows, withdrawals included; no
        ``BgpMessage`` and no elem is built.
        """
        peer_ips: set[str] = set()
        peer_ases: set[int] = set()
        prefixes: set[Prefix] = set()
        for data in (self._rib_bytes, self._update_bytes):
            if not data:
                continue
            reader = MrtReader(collector=self.collector)
            for _, peer_ip, peer_as, prefix, _ in reader.rows(data):
                peer_ips.add(peer_ip)
                peer_ases.add(peer_as)
                prefixes.add(prefix)
        return peer_ips, peer_ases, prefixes

    def rib_specs(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[RowSpec]:
        """Row specs of the RIB archive, decoded column-first.

        The reader writes timestamp/prefix/peer/community fields straight
        out of the MRT records; neither a ``BgpMessage`` nor a
        ``StreamElem`` is constructed unless the row thunk fires.
        """
        if not self._rib_bytes:
            return iter(())
        reader = MrtReader(collector=self.collector)
        return reader.row_specs(
            self._rib_bytes, self.project, rib=True, prefix_filter=prefix_filter
        )

    def update_specs(
        self, prefix_filter: PrefixPredicate | None = None
    ) -> Iterator[RowSpec]:
        """Row specs of the update archive, decoded column-first."""
        if not self._update_bytes:
            return iter(())
        reader = MrtReader(collector=self.collector)
        return reader.row_specs(
            self._update_bytes, self.project, prefix_filter=prefix_filter
        )

    rib_elems = _rib_elems
    update_stream = _update_stream
    all_elems = _all_elems
    row_specs = _row_specs
    batches = _batches

    def __repr__(self) -> str:  # pragma: no cover - trivial
        rib_size = len(self._rib_bytes or b"")
        upd_size = len(self._update_bytes or b"")
        return (
            f"MrtSource(project={self.project!r}, collector={self.collector!r}, "
            f"rib_bytes={rib_size}, update_bytes={upd_size})"
        )
