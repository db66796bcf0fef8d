"""Tests for decoder-to-column ingestion (lazy rows, zero-copy selects).

Covers the acceptance properties of the lazy batch-building layer:

* lazy row columns -- rows materialise exactly once, on first indexed
  access, with a shared ``materialised`` counter that sub-views never fork;
* elem oracles -- every elem iterator (``all_elems``, ``rib_elems``,
  ``update_stream``, ``BgpStream.elems``) is derived from the same row
  specs as the batches, so each is held to an oracle built without specs:
  ``StreamElem.from_message`` over the source's messages (in-memory) or
  over ``MrtReader.messages`` (MRT), then the stable RIB sort and
  timestamp heap merge (merged stream), with and without elem filters;
* builder columns -- every column (and interner id) of a source's or
  merged stream's batches equals the field of its materialised rows
  (``column_checks.assert_columns_match_rows``), chunked like ``islice``,
  and the rows equal the oracle, on the in-memory, MRT and merged-stream
  paths, under adversarial orderings;
* zero-copy selects -- contiguous index runs slice typed columns through
  ``memoryview`` views, ``_split_batch`` takes the zero-copy branch for
  shard-grouped batches, and neither path ever forces a lazy row;
* engine laziness -- a fully-boring stream completes with
  ``rows_materialised == 0``, and lazy batches produce bit-identical
  outcomes to the per-elem ``process`` oracle on serial, inline and
  process backends.
"""

from __future__ import annotations

import dataclasses
import heapq
from array import array
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.community import Community, CommunitySet
from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.bgp.rib import Rib
from repro.core.inference import BlackholingInferenceEngine
from repro.dictionary.model import BlackholeDictionary, CommunityEntry, CommunitySource
from repro.exec import ExecutionPlan
from repro.exec.plan import _split_batch, observation_sort_key
from repro.mrt.reader import MrtReader, read_records
from repro.mrt.writer import write_rib, write_updates
from repro.netutils.prefixes import Prefix
from repro.stream.batch import (
    ColumnBuilder,
    CommunityInterner,
    ElemBatch,
    LazyRowColumn,
    PeerPrefixInterner,
)
from repro.stream.filters import TimeWindowFilter
from repro.stream.merger import BgpStream
from repro.stream.record import ElemType, StreamElem
from repro.stream.source import CollectorSource, MrtSource

from column_checks import assert_columns_match_rows

_DICTIONARY = BlackholeDictionary(
    [
        CommunityEntry(
            community=Community(64999, 666),
            provider_asn=64999,
            source=CommunitySource.WEB,
        )
    ]
)


def _update(ts, prefix, peer="10.0.0.1", collector="rrc00", communities=()):
    return BgpUpdate(
        timestamp=float(ts),
        collector=collector,
        peer_ip=peer,
        peer_as=64500,
        prefix=Prefix.from_string(prefix),
        attributes=PathAttributes(
            as_path=AsPath.from_hops([64500, 64999]),
            next_hop="192.0.2.1",
            communities=CommunitySet.from_strings(list(communities)),
        ),
    )


def _withdrawal(ts, prefix, peer="10.0.0.1", collector="rrc00"):
    return BgpWithdrawal(
        timestamp=float(ts),
        collector=collector,
        peer_ip=peer,
        peer_as=64500,
        prefix=Prefix.from_string(prefix),
    )


# --------------------------------------------------------------------------- #
# Lazy row column mechanics
# --------------------------------------------------------------------------- #
class TestLazyRowColumn:
    def _column(self, count=4):
        calls = []

        def provider(index):
            def make():
                calls.append(index)
                return index * 10

            return make

        return LazyRowColumn([provider(i) for i in range(count)]), calls

    def test_rows_materialise_once_on_first_access(self):
        column, calls = self._column()
        assert column.materialised == 0
        assert column[2] == 20
        assert column[2] == 20
        assert calls == [2]
        assert column.materialised == 1

    def test_iteration_materialises_all_rows(self):
        column, calls = self._column(3)
        assert list(column) == [0, 10, 20]
        assert column.materialised == 3
        # Re-iteration serves the cache.
        assert list(column) == [0, 10, 20]
        assert calls == [0, 1, 2]

    def test_views_share_the_cache_and_counter(self):
        column, calls = self._column(6)
        view = column.view([4, 1])
        assert len(view) == 2
        assert view.materialised == 0
        assert view[0] == 40
        assert column.materialised == 1
        # The parent serves the already-materialised row without a rebuild.
        assert column[4] == 40
        assert calls == [4]

    def test_range_views_compose_without_forcing_rows(self):
        column, calls = self._column(10)
        outer = column.view(range(2, 8))
        inner = outer.view(range(1, 3))
        assert isinstance(inner._indices, range)
        assert list(inner) == [30, 40]
        assert column.materialised == 2
        mixed = outer.view([3, 0])
        assert list(mixed) == [50, 20]
        assert calls == [3, 4, 5, 2]


# --------------------------------------------------------------------------- #
# Oracles built without row specs
# --------------------------------------------------------------------------- #
_ops = st.lists(
    st.tuples(
        st.sampled_from(["announce_tagged", "announce_untagged", "withdraw"]),
        st.sampled_from(["185.1.0.1/32", "185.1.0.2/32", "10.9.8.7/32"]),
        st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    ),
    max_size=30,
)


def _messages(ops, collector="rrc00"):
    out = []
    for index, (op, prefix, peer) in enumerate(ops):
        if op == "withdraw":
            out.append(_withdrawal(index, prefix, peer=peer, collector=collector))
        elif op == "announce_untagged":
            out.append(_update(index, prefix, peer=peer, collector=collector))
        else:
            tag = ["64999:666"]
            out.append(_update(index, prefix, peer=peer, collector=collector, communities=tag))
    return out


def _oracle(project, dump, updates):
    """``(rib elems, update elems)`` straight from the messages."""
    rib = [StreamElem.from_message(m, project, ElemType.RIB) for m in dump]
    return rib, [StreamElem.from_message(m, project) for m in updates]


def _mrt_oracle(source, prefix_filter=None):
    """The MRT source's elems via the reader's message objects."""
    def messages(data):
        reader = MrtReader(collector=source.collector)
        return list(reader.messages(data, prefix_filter)) if data else []

    return _oracle(
        source.project,
        messages(source._rib_bytes),
        messages(source._update_bytes),
    )


def _stream_oracle(parts, filters=()):
    """Sort the RIB elems, heap-merge the update runs, then filter."""
    rib = sorted(chain.from_iterable(r for r, _ in parts), key=StreamElem.sort_key)
    live = heapq.merge(*(u for _, u in parts), key=lambda elem: elem.timestamp)
    return [e for e in chain(rib, live) if all(f(e) for f in filters)]


def _mrt_source():
    rib = Rib("rrc00")
    rib.apply(_update(1000.0, "198.51.100.0/24"))
    rib.apply(_update(1000.0, "203.0.113.0/24", communities=["64999:666"]))
    updates = [
        _update(2000.0, "203.0.113.7/32", communities=["64999:666"]),
        _withdrawal(2100.0, "203.0.113.7/32"),
        _update(2200.0, "2001:db8::/32"),
    ]
    return MrtSource(
        "ris",
        "rrc00",
        rib_bytes=write_rib(rib),
        update_bytes=write_updates(updates),
    )


class TestElemOracle:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_ops)
    def test_collector_source_elems_match_from_message(self, ops):
        messages = _messages(ops)
        dump = [m for m in messages if isinstance(m, BgpUpdate)][:3][::-1]
        source = CollectorSource("ris", "rrc00", rib=dump, updates=messages[::-1])
        rib, live = _oracle("ris", dump, sorted(messages, key=lambda m: m.timestamp))
        assert list(source.rib_elems()) == rib
        assert list(source.update_stream()) == live
        assert list(source.all_elems()) == rib + live

    @pytest.mark.parametrize(
        "prefix_filter", [None, lambda prefix: prefix.length == 24]
    )
    def test_mrt_source_elems_match_reader_messages(self, prefix_filter):
        source = _mrt_source()
        rib, live = _mrt_oracle(source, prefix_filter)
        assert rib and live or prefix_filter is not None
        assert list(source.rib_elems(prefix_filter)) == rib
        assert list(source.update_stream(prefix_filter)) == live
        assert list(source.all_elems(prefix_filter)) == rib + live

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_ops, window=st.none() | st.tuples(st.integers(0, 30), st.integers(0, 30)))
    def test_merged_stream_elems_match_sort_and_merge(self, ops, window):
        messages = _messages(ops)
        other = _messages(ops[::-1], collector="route-views2")
        # Few distinct dump times, so RIB rows tie on time across sources.
        dump = [
            dataclasses.replace(m, timestamp=float(m.timestamp % 3))
            for m in messages[::-1]
            if isinstance(m, BgpUpdate)
        ]
        sources = [
            CollectorSource("ris", "rrc00", rib=dump[:4], updates=messages),
            CollectorSource("routeviews", "route-views2", rib=dump[4:], updates=other),
            _mrt_source(),
        ]
        filters = [TimeWindowFilter(*map(float, sorted(window)))] if window else []
        parts = [
            _oracle("ris", dump[:4], messages),
            _oracle("routeviews", dump[4:], other),
            _mrt_oracle(sources[2]),
        ]
        expected = _stream_oracle(parts, filters)
        stream = BgpStream(sources, filters=filters)
        assert list(stream.elems()) == expected
        assert list(stream) == expected
        rib_count = sum(e.is_rib for e in expected)
        assert list(stream.rib_elems()) == expected[:rib_count]
        assert list(stream.updates()) == expected[rib_count:]


# --------------------------------------------------------------------------- #
# Builder columns against the materialised rows
# --------------------------------------------------------------------------- #
class TestBuilderParity:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_ops, batch_size=st.integers(min_value=1, max_value=9))
    def test_source_batches_match_eager_columns(self, ops, batch_size):
        messages = _messages(ops)
        dump = [m for m in messages if isinstance(m, BgpUpdate)][:2]
        source = CollectorSource("ris", "rrc00", rib=dump, updates=messages)
        lazy = list(source.batches(batch_size))
        assert all(batch.rows_materialised == 0 for batch in lazy)
        rib, live = _oracle("ris", dump, messages)
        assert assert_columns_match_rows(lazy, batch_size) == rib + live
        assert all(batch.rows_materialised == len(batch) for batch in lazy)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_ops, batch_size=st.integers(min_value=1, max_value=9))
    def test_merged_stream_batches_match_eager_columns(self, ops, batch_size):
        messages = _messages(ops)
        half = len(messages) // 2
        stream = BgpStream(
            [
                CollectorSource("ris", "rrc00", updates=messages[:half]),
                CollectorSource("routeviews", "route-views2", updates=messages[half:]),
            ]
        )
        lazy = list(stream.batches(batch_size))
        assert all(batch.rows_materialised == 0 for batch in lazy)
        rows = assert_columns_match_rows(lazy, batch_size)
        assert rows == _stream_oracle(
            [_oracle("ris", [], messages[:half]), _oracle("routeviews", [], messages[half:])]
        )

    def test_rib_dump_specs_order_like_sorted_elems(self):
        # Unsorted dumps: the spec-level sort key must order exactly like
        # StreamElem.sort_key, including collector/peer/prefix tie-breaks.
        dump = [
            _update(5.0, "203.0.113.0/24", peer="10.0.0.2"),
            _update(5.0, "198.51.100.0/24", peer="10.0.0.1"),
            _update(1.0, "203.0.113.0/24", peer="10.0.0.1"),
        ]
        stream = BgpStream([CollectorSource("ris", "rrc00", rib=dump)])
        rows = assert_columns_match_rows(list(stream.batches(8)), 8)
        expected = sorted(_oracle("ris", dump, [])[0], key=StreamElem.sort_key)
        assert rows == expected
        assert [str(row.prefix) for row in rows] == [
            "203.0.113.0/24", "198.51.100.0/24", "203.0.113.0/24"
        ]

    def test_filtered_stream_falls_back_to_eager_batches(self):
        messages = _messages([("announce_tagged", "185.1.0.1/32", "10.0.0.1")] * 3)
        stream = BgpStream(
            [CollectorSource("ris", "rrc00", updates=messages)],
            filters=[TimeWindowFilter(0.0, 2.0)],
        )
        batches = list(stream.batches(8))
        # The filters built the kept elems; the batch wraps them, and no
        # wrapper thunk fires until a row is indexed.
        assert all(b.rows_materialised == 0 for b in batches)
        rows = assert_columns_match_rows(batches, 8)
        assert rows == list(stream.elems())
        assert rows == _oracle("ris", [], messages[:2])[1]  # ts 0.0 and 1.0 only
        assert all(b.rows_materialised == len(b) for b in batches)

    def test_builder_shares_one_interner_pair_across_batches(self):
        interner = CommunityInterner()
        peer_interner = PeerPrefixInterner()
        sources = [
            CollectorSource(
                "ris",
                "rrc00",
                updates=[_update(1.0, "185.1.0.1/32", communities=["64999:666"])],
            ),
            CollectorSource(
                "ris",
                "rrc01",
                updates=[
                    _update(
                        1.0,
                        "185.1.0.1/32",
                        collector="rrc01",
                        communities=["64999:666"],
                    )
                ],
            ),
        ]
        batches = [
            batch
            for source in sources
            for batch in source.batches(4, None, interner, peer_interner)
        ]
        assert all(batch.interner is interner for batch in batches)
        assert all(batch.peer_interner is peer_interner for batch in batches)
        # Same community set -> same id across separately-built sources.
        assert batches[0].community_ids[0] == batches[1].community_ids[0]
        # Distinct collectors -> distinct peer-prefix ids from one id space.
        assert batches[0].peer_prefix_ids[0] != batches[1].peer_prefix_ids[0]
        assert len(peer_interner) == 2

    def test_column_builder_drains_between_builds(self):
        source = CollectorSource(
            "ris", "rrc00", updates=_messages([("announce_tagged", "185.1.0.1/32", "10.0.0.1")] * 3)
        )
        builder = ColumnBuilder()
        builder.extend(source.row_specs())
        assert len(builder) == 3
        first = builder.build()
        assert len(first) == 3 and len(builder) == 0
        assert len(builder.build()) == 0


# --------------------------------------------------------------------------- #
# MRT decoder-to-column path
# --------------------------------------------------------------------------- #
class TestMrtSpecParity:
    def test_mrt_batches_match_eager_columns(self):
        source = _mrt_source()
        lazy = list(source.batches(2))
        assert all(batch.rows_materialised == 0 for batch in lazy)
        rib, live = _mrt_oracle(source)
        assert assert_columns_match_rows(lazy, 2) == rib + live

    def test_mrt_prefix_filter_applies_before_the_row_thunk(self):
        source = _mrt_source()
        keep = lambda prefix: prefix.length == 24
        batches = list(source.batches(8, keep))
        assert all(batch.rows_materialised == 0 for batch in batches)
        rib, live = _mrt_oracle(source, keep)
        assert assert_columns_match_rows(batches, 8) == rib + live
        assert len(rib + live) == 2

    def test_read_records_hands_out_memoryview_payloads(self):
        data = write_updates([_update(2000.0, "203.0.113.7/32")])
        records = list(read_records(data))
        assert records and all(
            isinstance(record.payload, memoryview) for record in records
        )
        # The scan accepts an existing memoryview unchanged.
        again = list(read_records(memoryview(data)))
        assert [bytes(r.payload) for r in again] == [
            bytes(r.payload) for r in records
        ]


# --------------------------------------------------------------------------- #
# Zero-copy contiguous selects
# --------------------------------------------------------------------------- #
def _lazy_batch(count=8):
    messages = [
        _update(i, f"185.1.{i}.0/24", peer="10.0.0.1" if i % 2 else "10.0.0.2")
        for i in range(count)
    ]
    source = CollectorSource("ris", "rrc00", updates=messages)
    return next(source.batches(count))


class TestZeroCopySelect:
    def test_contiguous_run_slices_typed_columns_as_memoryviews(self):
        batch = _lazy_batch()
        sub = batch.select(list(range(2, 6)))
        assert len(sub) == 4
        for column in (sub.timestamps, sub.type_codes, sub.prefix_keys):
            assert isinstance(column, memoryview)
        # Views over the parent buffers: same values, no copies, rows lazy.
        assert list(sub.timestamps) == list(batch.timestamps)[2:6]
        assert sub.timestamps.obj is batch.timestamps
        assert sub.rows_materialised == 0

    def test_range_indices_take_the_fast_path_without_scanning(self):
        batch = _lazy_batch()
        sub = batch.select(range(1, 5))
        assert isinstance(sub.prefix_keys, memoryview)
        assert list(sub.prefix_keys) == list(batch.prefix_keys)[1:5]

    def test_non_contiguous_indices_fall_back_to_gather(self):
        batch = _lazy_batch()
        # Endpoints look like a run of 4 ([0..3]) but the middle is shuffled.
        sub = batch.select([0, 2, 1, 3])
        assert isinstance(sub.timestamps, array)
        assert list(sub.timestamps) == [0.0, 2.0, 1.0, 3.0]
        # The gather still never forces lazy rows.
        assert sub.rows_materialised == 0
        assert [elem.timestamp for elem in sub] == [0.0, 2.0, 1.0, 3.0]

    def test_sub_batch_of_sub_batch_reslices_the_same_buffer(self):
        batch = _lazy_batch()
        run = batch.select_run(1, 7)
        nested = run.select_run(2, 5)
        assert nested.timestamps.obj is batch.timestamps
        assert list(nested.timestamps) == [3.0, 4.0, 5.0]
        assert [elem.timestamp for elem in nested] == [3.0, 4.0, 5.0]
        # Only the three indexed rows ever became objects, parent-wide.
        assert batch.rows_materialised == 3

    def test_eager_batches_take_the_same_fast_path(self):
        elems = list(_lazy_batch())
        batch = ElemBatch.from_elems(elems)
        sub = batch.select(list(range(0, 4)))
        assert isinstance(sub.timestamps, memoryview)
        assert list(sub) == elems[:4]


class TestSplitBatchGrouped:
    def _sharded_batch(self, workers=3, rows=32):
        batch = _lazy_batch(rows)
        from repro.exec.plan import shard_of_key

        order = sorted(
            range(len(batch)), key=lambda i: shard_of_key(batch.prefix_keys[i], workers)
        )
        return batch, order

    def test_shard_grouped_batches_split_zero_copy(self):
        workers = 3
        batch, order = self._sharded_batch(workers)
        grouped = batch.select(order)
        splits = _split_batch(grouped, workers, {})
        assert len(splits) > 1
        for _, sub in splits:
            assert isinstance(sub.timestamps, memoryview)
            assert sub.timestamps.obj is grouped.timestamps
        # Zero-copy split of a lazy batch forces no rows.
        assert grouped.rows_materialised == 0
        # And equals the per-row reference split of the ungrouped order.
        reference = _split_batch(batch, workers, {})
        assert [shard for shard, _ in splits] == [shard for shard, _ in reference]
        for (_, sub), (_, ref) in zip(splits, reference):
            assert sorted(sub.prefixes, key=str) == sorted(ref.prefixes, key=str)

    def test_interleaved_batches_keep_the_gather_split(self):
        workers = 3
        batch, order = self._sharded_batch(workers)
        shards = {shard for shard, _ in _split_batch(batch, workers, {})}
        assert len(shards) > 1  # genuinely interleaved
        for shard, sub in _split_batch(batch, workers, {}):
            assert not isinstance(sub.timestamps, memoryview) or len(sub) == len(batch)

    def test_single_shard_batches_still_pass_through_unsliced(self):
        batch = _lazy_batch(4)
        splits = _split_batch(batch, 1, {})
        assert len(splits) == 1 and splits[0][1] is batch


# --------------------------------------------------------------------------- #
# Engine laziness and backend parity
# --------------------------------------------------------------------------- #
def _stats_without_dispatch(engine_stats) -> dict:
    counters = dataclasses.asdict(engine_stats)
    for name in ("process_calls", "batches_processed", "row_touches", "rows_materialised"):
        counters.pop(name)
    return counters


class TestEngineLaziness:
    def test_fully_boring_stream_materialises_zero_rows(self):
        # No message carries the dictionary community: the kernel bulk-skips
        # every row, so no StreamElem is ever constructed.
        messages = [
            _update(i, f"185.1.{i % 4}.0/24") for i in range(64)
        ] + [_withdrawal(100 + i, f"185.1.{i % 4}.0/24") for i in range(8)]
        source = CollectorSource("ris", "rrc00", updates=messages)
        engine = BlackholingInferenceEngine(_DICTIONARY)
        for batch in source.batches(16):
            engine.process_batch(batch)
        engine.finalise(1000.0)
        assert engine.stats.elems_processed == len(messages)
        assert engine.stats.row_touches == 0
        assert engine.stats.rows_materialised == 0
        assert engine.observations() == []

    def test_kernel_materialises_only_tagged_announcements(self):
        messages = [
            _update(1.0, "185.1.0.1/32", communities=["64999:666"]),  # forced
            _update(2.0, "185.1.0.2/32"),  # boring, skipped
            _withdrawal(3.0, "185.1.0.1/32"),  # touched via columns only
        ]
        source = CollectorSource("ris", "rrc00", updates=messages)
        engine = BlackholingInferenceEngine(_DICTIONARY)
        batch = next(source.batches(8))
        engine.process_batch(batch)
        assert engine.stats.row_touches == 2  # tagged announce + withdrawal
        assert engine.stats.rows_materialised == 1  # the announce only
        assert batch.rows_materialised == 1

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_ops, batch_size=st.integers(min_value=1, max_value=9))
    def test_lazy_batches_match_per_elem_dispatch(self, ops, batch_size):
        messages = _messages(ops)
        source = CollectorSource("ris", "rrc00", updates=messages)

        def run_lazy():
            engine = BlackholingInferenceEngine(_DICTIONARY)
            for batch in source.batches(batch_size):
                engine.process_batch(batch)
            observations = engine.finalise(10_000.0)
            return observations, engine.stats, engine.cleaner.stats

        def run_elems():
            engine = BlackholingInferenceEngine(_DICTIONARY)
            for elem in source.all_elems():
                engine.process(elem)
            observations = engine.finalise(10_000.0)
            return observations, engine.stats, engine.cleaner.stats

        lazy_obs, lazy_stats, lazy_clean = run_lazy()
        elem_obs, elem_stats, elem_clean = run_elems()
        assert lazy_obs == elem_obs
        assert lazy_clean == elem_clean
        assert _stats_without_dispatch(lazy_stats) == _stats_without_dispatch(elem_stats)
        assert lazy_stats.rows_materialised <= lazy_stats.row_touches

    @pytest.mark.parametrize("plan_knobs", [
        {"workers": 1},
        {"workers": 4, "backend": "inline"},
        {"workers": 4, "backend": "process"},
    ])
    def test_lazy_outcomes_are_bit_identical_across_backends(self, plan_knobs):
        ops = [
            ("announce_tagged", "185.1.0.1/32", "10.0.0.1"),
            ("announce_untagged", "185.1.0.2/32", "10.0.0.2"),
            ("withdraw", "185.1.0.1/32", "10.0.0.1"),
            ("announce_tagged", "185.1.0.2/32", "10.0.0.2"),
            ("announce_untagged", "185.1.0.2/32", "10.0.0.2"),
            ("announce_tagged", "10.9.8.7/32", "10.0.0.1"),
            ("withdraw", "185.1.0.2/32", "10.0.0.2"),
        ] * 6
        messages = _messages(ops)
        half = len(messages) // 2
        stream = BgpStream(
            [
                CollectorSource("ris", "rrc00", updates=messages[:half]),
                CollectorSource("routeviews", "route-views2", updates=messages[half:]),
            ]
        )
        baseline = ExecutionPlan().run_inference(
            stream, _DICTIONARY, end_time=10_000.0
        )
        outcome = ExecutionPlan(batch_size=5, **plan_knobs).run_inference(
            stream, _DICTIONARY, end_time=10_000.0
        )
        key = observation_sort_key
        assert sorted(outcome.observations, key=key) == sorted(
            baseline.observations, key=key
        )
        assert outcome.cleaning_stats == baseline.cleaning_stats
        assert _stats_without_dispatch(outcome.engine_stats) == (
            _stats_without_dispatch(baseline.engine_stats)
        )
        assert (
            outcome.engine_stats.rows_materialised
            <= outcome.engine_stats.row_touches
        )
