"""The blackholing inference engine (Section 4.2).

Operation mirrors the paper:

1. **Initialisation from a table dump** -- every RIB elem whose communities
   match the dictionary becomes an active observation with start time zero
   ("we can only conclude that the blackholing event started before the BGP
   dump was stored").
2. **Continuous monitoring of announcements** -- a tagged announcement for a
   not-yet-blackholed prefix starts a new observation at that peer; an
   untagged announcement for a previously blackholed prefix is an *implicit
   withdrawal* ending all of that peer's observations for the prefix.
3. **Continuous monitoring of withdrawals** -- an explicit withdrawal ends
   the observations for that (peer, prefix).

State is tracked per BGP peer; correlation across peers is done afterwards
by :mod:`repro.core.grouping`.

Elems reach the engine in columnar batches, through
:meth:`BlackholingInferenceEngine.process_batch`, a **column-native
kernel**: cleaning verdicts, dictionary tag flags and the active-state
test are byte columns gathered at C speed from tables indexed by the
batch's interned ids, fused with the type-code column into one
class-code byte string via carry-free big-int arithmetic, and only the
*interesting* rows -- tagged announcements, withdrawals of active state and
implicit withdrawals -- ever reach Python-level row handling
(``EngineStats.row_touches`` counts exactly those).  Results are
bit-identical to :meth:`BlackholingInferenceEngine.process`, the per-elem
reference the tests compare the kernel with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.core.cleaning import BgpCleaner
from repro.core.events import BlackholingObservation, EndCause
from repro.core.providers import ProviderResolver, ResolvedProvider
from repro.dictionary.model import BlackholeDictionary, CommunityMatcher
from repro.netutils.prefixes import Prefix
from repro.stream.batch import (
    TYPE_RIB,
    TYPE_WITHDRAWAL,
    ElemBatch,
    PeerPrefixInterner,
    stream_batches,
)
from repro.stream.record import StreamElem
from repro.topology.peeringdb import PeeringDbDataset

__all__ = ["BlackholingInferenceEngine", "EngineStats"]

#: Start time recorded for blackholings already present in the initial dump.
TABLE_DUMP_START = 0.0

# ----------------------------------------------------------------------- #
# Class-code tables of the batch kernel.  A row's class byte is
#
#     type_code + (tagged << 2) + (active_interest << 3) + (dropped << 5)
#
# assembled by adding the shifted byte columns as big ints -- every
# component sum is < 256, so the addition is carry-free and byte i of the
# result is exactly row i's class.
# ----------------------------------------------------------------------- #

#: Cleaning verdict code -> the ``dropped`` bit, pre-shifted to bit 5.
_DROP_SHIFT = bytes(0 if code == 0 else 32 for code in range(256))

#: Class code -> 1 when the row needs Python-level handling.  Dropped rows
#: (bit 5) and kept untagged rows with no active interest (codes 0/1/2 --
#: including withdrawals of peer-prefixes with no active state, which are
#: no-ops beyond the columnar counters) are skipped.
_SCAN_TABLE = bytes(
    0 if (code >= 16 or code in (0, 1, 2)) else 1 for code in range(256)
)

#: Kept-row class codes per elem type (any tag/interest combination).
_RIB_CLASSES = (0, 4, 8, 12)
_ANNOUNCEMENT_CLASSES = (1, 5, 9, 13)
_WITHDRAWAL_CLASSES = (2, 6, 10, 14)


@dataclass
class EngineStats:
    """Operational counters of one engine run.

    ``process_calls`` and ``batches_processed`` count *dispatch* units: one
    per ``process()`` call (the per-elem reference, zero in every
    production pass) and one per ``process_batch()`` call on an
    :class:`~repro.stream.batch.ElemBatch`.  ``row_touches`` counts rows
    that reach **Python-level row handling**: every kept elem through
    ``process()``, but only the *interesting* rows (tagged announcements,
    withdrawals of active state, implicit withdrawals) on the batch kernel
    -- the benchmarks assert it scales with blackholing activity, not with
    stream length, while ``elems_processed`` always scales with the stream.
    """

    elems_processed: int = 0
    announcements: int = 0
    withdrawals: int = 0
    rib_entries: int = 0
    tagged_announcements: int = 0
    observations_started: int = 0
    observations_ended: int = 0
    #: Per-elem Python dispatch calls (``process()`` invocations).
    process_calls: int = 0
    #: Per-batch dispatch calls (``process_batch()`` invocations).
    batches_processed: int = 0
    #: Rows that reached Python-level row handling (see class docstring).
    row_touches: int = 0
    #: Row thunks of lazy-row batches fired *by this engine* (the rows it
    #: was first to index).  At most ``row_touches`` -- the kernel only
    #: indexes rows for tagged announcements.  On decoder-to-column
    #: batches each fire constructs a ``StreamElem``; on batches wrapped
    #: around already-built elems it only hands the elem over.
    rows_materialised: int = 0


class BlackholingInferenceEngine:
    """Stateful per-peer blackholing tracker."""

    def __init__(
        self,
        dictionary: BlackholeDictionary,
        peeringdb: PeeringDbDataset | None = None,
        cleaner: BgpCleaner | None = None,
        resolver: ProviderResolver | None = None,
        enable_bundling: bool = True,
        on_completed: Callable[[BlackholingObservation], None] | None = None,
        completed_sink=None,
    ) -> None:
        self.dictionary = dictionary
        self.peeringdb = peeringdb if peeringdb is not None else PeeringDbDataset()
        self.cleaner = cleaner if cleaner is not None else BgpCleaner()
        self.resolver = resolver or ProviderResolver(
            dictionary, self.peeringdb, enable_bundling=enable_bundling
        )
        #: Streaming hook: called with every observation the moment it
        #: closes (implicit/explicit withdrawal or finalisation), letting
        #: incremental consumers such as
        #: :class:`~repro.core.grouping.GroupingAccumulator` ingest results
        #: without waiting for the full pass.
        self.on_completed = on_completed
        self.stats = EngineStats()
        # Active observations keyed on (collector, peer_ip, prefix, provider_key).
        self._active: dict[tuple[str, str, Prefix, str], BlackholingObservation] = {}
        # Active provider keys per *interned* (collector, peer_ip, prefix)
        # id -- the int-keyed core of the peer-prefix state.  The tuple API
        # stays at the edges: ids come from ``_peer_interner`` (adopted
        # from the first batch seen, or engine-owned on the elem path).
        self._active_by_peer_prefix: dict[int, set[str]] = {}
        #: id -> 1 when the peer-prefix has active state; the batch kernel
        #: gathers this table over the ``peer_prefix_ids`` column to
        #: bulk-skip rows with no active state.
        self._active_table = bytearray()
        self._peer_interner: PeerPrefixInterner | None = None
        #: Closed observations.  Default is a plain list; a bounded-memory
        #: run passes a :class:`~repro.exec.spill.SpillingObservationSink`
        #: (anything with ``append`` and ``__iter__``) so overflow spills to
        #: disk instead of growing resident.
        self._completed = [] if completed_sink is None else completed_sink
        #: Precompiled tag matcher of the columnar path, rebuilt whenever
        #: the resolver's dictionary identity changes.
        self._matcher: CommunityMatcher | None = None
        self._matcher_dictionary: BlackholeDictionary | None = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, elems: Iterable[StreamElem]) -> list[BlackholingObservation]:
        """Process a full stream and return all observations (ended + active).

        The stream is consumed incrementally through :meth:`process_batch`,
        in the batches :func:`~repro.stream.batch.stream_batches` builds.
        """
        for batch in stream_batches(elems):
            self.process_batch(batch)
        return self.observations()

    def process(self, elem: StreamElem) -> None:
        """Process one elem (RIB entry, announcement or withdrawal): the
        per-elem oracle the tests hold :meth:`process_batch` to."""
        stats = self.stats
        stats.process_calls += 1
        stats.elems_processed += 1
        if not self.cleaner.accept(elem):
            return
        stats.row_touches += 1
        if elem.is_rib:
            stats.rib_entries += 1
            self._handle_announcement(elem, from_table_dump=True)
        elif elem.is_announcement:
            stats.announcements += 1
            self._handle_announcement(elem, from_table_dump=False)
        elif elem.is_withdrawal:
            stats.withdrawals += 1
            self._handle_withdrawal(elem)

    def process_batch(self, batch: ElemBatch) -> None:
        """Process one columnar batch, bit-identical to :meth:`process`
        called once per row.

        The kernel runs O(1) Python frames per *column*:

        1. cleaning verdicts, tag flags and active-state interest are byte
           columns gathered from tables indexed by the batch's interned
           ids (:meth:`~repro.core.cleaning.BgpCleaner.verdict_column`,
           :meth:`~repro.dictionary.model.CommunityMatcher.flag_table`,
           the engine's own active table);
        2. the columns fuse with the type codes into one class-code byte
           string via carry-free big-int adds, the per-type counters fall
           out as C-level ``count`` calls, and a ``translate`` maps every
           boring row -- dropped, or kept-untagged with no active state --
           to zero;
        3. only the remaining nonzero rows (tagged announcements,
           withdrawals and implicit withdrawals of *active* peer-prefixes)
           are routed through the per-row state transitions, in row order,
           so observations, counters and ordering equal per-elem dispatch
           bit for bit.

        Ids of rows tagged in this batch are pre-marked in the active
        table before the interest gather, so an untagged row later in the
        same batch still sees state activated mid-batch.
        """
        stats = self.stats
        stats.batches_processed += 1
        count = len(batch)
        stats.elems_processed += count
        if not count:
            return
        self._adopt_interner(batch.peer_interner)

        # -- column passes ------------------------------------------------
        verdicts = self.cleaner.verdict_column(batch)
        dictionary = getattr(self.resolver, "dictionary", self.dictionary)
        matcher = self._matcher
        if matcher is None or dictionary is not self._matcher_dictionary:
            # (Re)compile the tag matcher against the resolver's current
            # dictionary: rows it cannot resolve are exactly the rows the
            # elem path treats as untagged, and a resolver whose dictionary
            # identity changed mid-run must not match against the old one.
            matcher = self._matcher = dictionary.matcher()
            self._matcher_dictionary = dictionary
        tag_col = bytes(
            map(matcher.flag_table(batch.interner).__getitem__, batch.community_ids)
        )

        ids = batch.peer_prefix_ids
        table = self._active_table
        missing = len(self._peer_interner) - len(table)
        if missing > 0:
            table.extend(bytes(missing))

        # Pre-mark ids of this batch's tagged rows (announcements that may
        # activate state) so later untagged rows for the same peer-prefix
        # are not bulk-skipped; unused marks are reverted below.
        premarked: list[int] = []
        position = tag_col.find(1)
        while position >= 0:
            peer_prefix_id = ids[position]
            if not table[peer_prefix_id]:
                table[peer_prefix_id] = 1
                premarked.append(peer_prefix_id)
            position = tag_col.find(1, position + 1)

        interest_col = bytes(map(table.__getitem__, ids))

        classes = (
            int.from_bytes(bytes(batch.type_codes), "big")
            + (int.from_bytes(tag_col, "big") << 2)
            + (int.from_bytes(interest_col, "big") << 3)
            + int.from_bytes(verdicts.translate(_DROP_SHIFT), "big")
        ).to_bytes(count, "big")

        class_count = classes.count
        stats.rib_entries += sum(map(class_count, _RIB_CLASSES))
        stats.announcements += sum(map(class_count, _ANNOUNCEMENT_CLASSES))
        stats.withdrawals += sum(map(class_count, _WITHDRAWAL_CLASSES))

        # -- interesting rows only ----------------------------------------
        scan = classes.translate(_SCAN_TABLE)
        if scan.count(1):
            elems = batch.elems
            # A row thunk fires only at the elems[...] index below; the
            # before/after delta charges exactly the rows this kernel forced.
            materialised_before = batch.rows_materialised
            type_codes = batch.type_codes
            timestamps = batch.timestamps
            active_get = self._active_by_peer_prefix.get
            handle_announcement = self._handle_announcement
            end_peer_prefix = self._end_peer_prefix
            find = scan.find
            touches = 0
            position = find(1)
            while position >= 0:
                touches += 1
                type_code = type_codes[position]
                if type_code == TYPE_WITHDRAWAL:
                    peer_prefix_id = ids[position]
                    if active_get(peer_prefix_id):
                        end_peer_prefix(
                            peer_prefix_id,
                            timestamps[position],
                            EndCause.EXPLICIT_WITHDRAWAL,
                        )
                elif tag_col[position]:
                    handle_announcement(
                        elems[position],
                        from_table_dump=type_code == TYPE_RIB,
                        peer_prefix_id=ids[position],
                    )
                else:
                    # Untagged announcement over active state: an implicit
                    # withdrawal of the previously blackholed (peer, prefix).
                    peer_prefix_id = ids[position]
                    if active_get(peer_prefix_id):
                        end_peer_prefix(
                            peer_prefix_id,
                            timestamps[position],
                            EndCause.IMPLICIT_WITHDRAWAL,
                        )
                position = find(1, position + 1)
            stats.row_touches += touches
            stats.rows_materialised += batch.rows_materialised - materialised_before

        if premarked:
            active = self._active_by_peer_prefix
            for peer_prefix_id in premarked:
                if peer_prefix_id not in active:
                    table[peer_prefix_id] = 0

    def replace_completed(
        self, observations: Iterable[BlackholingObservation]
    ) -> None:
        """Swap the completed store for a plain resident list.

        The execution layer calls this after draining a spill sink: the
        sink's chunk files are deleted once the merged results are
        materialised, so the engine's exposed :meth:`observations` must
        switch to the drained list to stay valid.
        """
        self._completed = list(observations)

    def observations(self, include_active: bool = True) -> list[BlackholingObservation]:
        """All completed observations, plus the still-active ones."""
        result = list(self._completed)
        if include_active:
            result.extend(self._active.values())
        return result

    def active_observations(self) -> list[BlackholingObservation]:
        return list(self._active.values())

    def active_prefixes(self) -> set[Prefix]:
        """Prefixes currently blackholed at one or more peers."""
        return {observation.prefix for observation in self._active.values()}

    def finalise(self, end_time: float) -> list[BlackholingObservation]:
        """Close every still-active observation at the end of the window."""
        for key in sorted(self._active, key=lambda k: (k[0], k[1], str(k[2]), k[3])):
            observation = self._active[key]
            self._complete(observation.ended(end_time, EndCause.STREAM_END))
        self._active.clear()
        self._active_by_peer_prefix.clear()
        self._active_table = bytearray()
        return list(self._completed)

    def __iter__(self) -> Iterator[BlackholingObservation]:
        return iter(self.observations())

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _adopt_interner(self, interner: PeerPrefixInterner) -> None:
        """Key the engine's peer-prefix state on one interner's id space.

        The first batch's interner becomes the engine's id authority (the
        elem path interns into it too, so mixed elem/batch processing stays
        consistent).  A batch from a *different* interner re-interns the
        live state into the new id space -- rare (one interner serves a
        whole stream pass), but required for correctness when an engine
        outlives a stream.
        """
        current = self._peer_interner
        if current is interner:
            return
        if current is None or not self._active_by_peer_prefix:
            self._peer_interner = interner
            self._active_table = bytearray()
            self._active_by_peer_prefix.clear()
            return
        triples = current.triples
        intern_triple = interner.intern
        remapped: dict[int, set[str]] = {}
        table = bytearray(len(interner))
        for peer_prefix_id, providers in self._active_by_peer_prefix.items():
            new_id = intern_triple(triples[peer_prefix_id])
            remapped[new_id] = providers
            if new_id >= len(table):
                table.extend(bytes(new_id + 1 - len(table)))
            table[new_id] = 1
        self._active_by_peer_prefix = remapped
        self._active_table = table
        self._peer_interner = interner

    def _intern_peer_prefix(self, elem: StreamElem) -> int:
        interner = self._peer_interner
        if interner is None:
            interner = self._peer_interner = PeerPrefixInterner()
        return interner.intern((elem.collector, elem.peer_ip, elem.prefix))

    def _handle_announcement(
        self,
        elem: StreamElem,
        from_table_dump: bool,
        peer_prefix_id: int | None = None,
    ) -> None:
        resolutions = self.resolver.resolve(elem)
        if peer_prefix_id is None:
            peer_prefix_id = self._intern_peer_prefix(elem)

        if not resolutions:
            # No blackhole communities: if the prefix was previously observed
            # as blackholed at this peer, this is an implicit withdrawal.
            if self._active_by_peer_prefix.get(peer_prefix_id):
                self._end_peer_prefix(
                    peer_prefix_id, elem.timestamp, EndCause.IMPLICIT_WITHDRAWAL
                )
            return

        self.stats.tagged_announcements += 1
        for resolution in resolutions:
            self._start_or_refresh(elem, resolution, from_table_dump, peer_prefix_id)

    def _start_or_refresh(
        self,
        elem: StreamElem,
        resolution: ResolvedProvider,
        from_table_dump: bool,
        peer_prefix_id: int,
    ) -> None:
        key = (elem.collector, elem.peer_ip, elem.prefix, resolution.provider_key)
        if key in self._active:
            # Re-announcement of an already blackholed prefix: the event
            # continues; nothing to update (start time keeps its value).
            return
        start_time = TABLE_DUMP_START if from_table_dump else elem.timestamp
        observation = BlackholingObservation(
            prefix=elem.prefix,
            project=elem.project,
            collector=elem.collector,
            peer_ip=elem.peer_ip,
            peer_as=elem.peer_as,
            provider_key=resolution.provider_key,
            provider_asn=resolution.provider_asn,
            ixp_name=resolution.ixp_name,
            user_asn=resolution.user_asn,
            community=resolution.community,
            detection=resolution.detection,
            as_distance=resolution.as_distance,
            start_time=start_time,
            from_table_dump=from_table_dump,
        )
        self._active[key] = observation
        self._active_by_peer_prefix.setdefault(peer_prefix_id, set()).add(
            resolution.provider_key
        )
        table = self._active_table
        if peer_prefix_id >= len(table):
            table.extend(bytes(peer_prefix_id + 1 - len(table)))
        table[peer_prefix_id] = 1
        self.stats.observations_started += 1

    def _handle_withdrawal(self, elem: StreamElem) -> None:
        peer_prefix_id = self._intern_peer_prefix(elem)
        if self._active_by_peer_prefix.get(peer_prefix_id):
            self._end_peer_prefix(
                peer_prefix_id, elem.timestamp, EndCause.EXPLICIT_WITHDRAWAL
            )

    def _end_peer_prefix(
        self,
        peer_prefix_id: int,
        end_time: float,
        cause: EndCause,
    ) -> None:
        provider_keys = self._active_by_peer_prefix.pop(peer_prefix_id, set())
        collector, peer_ip, prefix = self._peer_interner.triples[peer_prefix_id]
        if peer_prefix_id < len(self._active_table):
            self._active_table[peer_prefix_id] = 0
        for provider_key in sorted(provider_keys):
            key = (collector, peer_ip, prefix, provider_key)
            observation = self._active.pop(key, None)
            if observation is None:
                continue
            self._complete(observation.ended(end_time, cause))

    def _complete(self, observation: BlackholingObservation) -> None:
        self._completed.append(observation)
        self.stats.observations_ended += 1
        if self.on_completed is not None:
            self.on_completed(observation)
