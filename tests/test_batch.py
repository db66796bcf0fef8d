"""Tests for the columnar elem-batch layer (:mod:`repro.stream.batch`).

Covers the acceptance properties of the vectorised hot path:

* column construction -- every :class:`ElemBatch` column is parallel to the
  row view, type codes / shard keys / interned ids agree with the per-elem
  primitives, and ``select`` sub-batches share the interner;
* matcher equivalence -- :class:`~repro.dictionary.model.CommunityMatcher`
  is exactly ``bool(dictionary.matched_communities(...))``, per set and per
  column;
* kernel-vs-oracle parity -- the default (columnar) plan produces
  observations, cleaning stats, usage statistics and grouped events
  bit-identical to the per-elem oracle (``engine.process`` and
  ``CommunityUsageStats.observe`` once per elem) on the serial, inline and
  process backends (engine stats match up to the dispatch counters, which
  intentionally differ);
* hypothesis property tests driving random elem streams through the kernel
  in every drawn chunk size and through the oracle.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.attributes import AsPath
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.message import BgpUpdate
from repro.core.inference import BlackholingInferenceEngine
from repro.dictionary.inference import CommunityUsageStats
from repro.dictionary.model import BlackholeDictionary, CommunityEntry, CommunitySource
from repro.core.grouping import GroupingAccumulator
from repro.exec import ExecutionPlan, observation_sort_key, shard_of, shard_of_key
from repro.netutils.prefixes import Prefix
from repro.stream.batch import (
    TYPE_ANNOUNCEMENT,
    TYPE_RIB,
    TYPE_WITHDRAWAL,
    ElemBatch,
    batch_specs,
    elem_specs,
    prefix_shard_key,
    stream_batches,
)
from repro.stream.merger import BgpStream
from repro.stream.record import ElemType, StreamElem
from repro.stream.source import CollectorSource

from column_checks import assert_columns_match_rows


def _elem(ts, prefix, elem_type=ElemType.ANNOUNCEMENT, communities=(),
          collector="rrc00", peer_ip="10.0.0.1"):
    return StreamElem(
        timestamp=ts,
        elem_type=elem_type,
        project="ris",
        collector=collector,
        peer_ip=peer_ip,
        peer_as=64500,
        prefix=Prefix.from_string(prefix),
        as_path=AsPath.from_hops([64500, 64999]),
        communities=CommunitySet.from_strings(list(communities)),
    )


def _announce(ts, prefix, communities=()):
    return _elem(ts, prefix, communities=communities)


def _withdraw(ts, prefix):
    return _elem(ts, prefix, elem_type=ElemType.WITHDRAWAL)


def _elems():
    return [
        _announce(1.0, "198.51.100.1/32", ["64999:666"]),
        _announce(2.0, "198.51.100.2/24"),
        _withdraw(3.0, "198.51.100.1/32"),
        _announce(4.0, "198.51.100.1/32", ["64999:666"]),
    ]


def _event_key(event):
    return (
        str(event.prefix),
        event.start_time,
        event.end_time,
        frozenset(event.observations),
    )


def _process_elemwise(engine, elems):
    """The per-elem oracle: one ``process`` call per elem."""
    for elem in elems:
        engine.process(elem)


def _process_in_batches(engine, elems, size):
    """The column kernel over ``size``-row chunks of ``elems``.

    Once the kernel is done, every column is checked against its rows.
    """
    batches = list(stream_batches(elems, size))
    for batch in batches:
        engine.process_batch(batch)
    assert assert_columns_match_rows(batches, size) == list(elems)


def _stats_without_dispatch(engine_stats) -> dict:
    counters = dataclasses.asdict(engine_stats)
    counters.pop("process_calls")
    counters.pop("batches_processed")
    # row_touches intentionally differs: every kept elem on the per-elem
    # path, only the interesting rows on the column kernel.
    counters.pop("row_touches")
    # rows_materialised likewise: the row thunks the kernel fired; the
    # per-elem path fires none.
    counters.pop("rows_materialised")
    return counters


# --------------------------------------------------------------------------- #
# Column construction
# --------------------------------------------------------------------------- #
class TestElemBatch:
    def test_columns_are_parallel_to_the_row_view(self):
        elems = _elems()
        batch = ElemBatch.from_elems(elems)
        assert len(batch) == len(elems)
        assert list(batch) == elems
        assert list(batch.timestamps) == [e.timestamp for e in elems]
        assert batch.collectors == [e.collector for e in elems]
        assert batch.peer_ips == [e.peer_ip for e in elems]
        assert batch.prefixes == [e.prefix for e in elems]
        assert list(batch.prefix_lengths) == [e.prefix.length for e in elems]

    def test_type_codes_match_the_elem_types(self):
        batch = ElemBatch.from_elems(_elems())
        assert list(batch.type_codes) == [
            TYPE_ANNOUNCEMENT,
            TYPE_ANNOUNCEMENT,
            TYPE_WITHDRAWAL,
            TYPE_ANNOUNCEMENT,
        ]
        assert {TYPE_RIB, TYPE_ANNOUNCEMENT, TYPE_WITHDRAWAL} == {0, 1, 2}

    def test_prefix_keys_agree_with_the_scalar_shard_function(self):
        batch = ElemBatch.from_elems(_elems())
        for prefix, key in zip(batch.prefixes, batch.prefix_keys):
            assert key == prefix_shard_key(prefix)
            for workers in (1, 2, 4, 7):
                assert shard_of_key(key, workers) == shard_of(prefix, workers)

    def test_community_ids_intern_equal_sets_to_one_id(self):
        batch = ElemBatch.from_elems(_elems())
        ids = batch.community_ids
        # Rows 0 and 3 carry the same community set; row 2 (withdrawal)
        # carries the empty set like row 1.
        assert ids[0] == ids[3]
        assert ids[1] == ids[2]
        assert ids[0] != ids[1]
        assert batch.interner.sets[ids[0]] == CommunitySet(
            [Community(64999, 666)]
        )

    def test_select_builds_a_sub_batch_sharing_the_interner(self):
        elems = _elems()
        batch = ElemBatch.from_elems(elems)
        sub = batch.select([0, 3])
        assert list(sub) == [elems[0], elems[3]]
        assert sub.interner is batch.interner
        assert sub.peer_interner is batch.peer_interner
        for column in (
            "timestamps",
            "type_codes",
            "collectors",
            "peer_ips",
            "prefixes",
            "prefix_lengths",
            "prefix_keys",
            "community_ids",
            "peer_prefix_ids",
        ):
            assert list(getattr(sub, column)) == [
                getattr(batch, column)[0],
                getattr(batch, column)[3],
            ]

    def test_peer_prefix_ids_intern_triples(self):
        elems = _elems()
        batch = ElemBatch.from_elems(elems)
        ids = batch.peer_prefix_ids
        # Rows 0, 2 and 3 share (collector, peer, prefix); row 1 differs.
        assert ids[0] == ids[2] == ids[3]
        assert ids[0] != ids[1]
        triple = batch.peer_interner.triples[ids[0]]
        assert triple == (elems[0].collector, elems[0].peer_ip, elems[0].prefix)
        # Ids are exact (dict-interned): re-interning returns the same id.
        assert batch.peer_interner.intern(triple) == ids[0]

    def test_batch_specs_chunks_and_validates(self):
        elems = _elems()
        batches = list(batch_specs(elem_specs(iter(elems)), 3))
        assert [len(b) for b in batches] == [3, 1]
        assert assert_columns_match_rows(batches, 3) == elems
        # One shared interner pair across the chunks of one call.
        assert batches[0].interner is batches[1].interner
        assert batches[0].peer_interner is batches[1].peer_interner
        with pytest.raises(ValueError):
            list(batch_specs(elem_specs(iter(elems)), 0))

    def test_stream_and_source_batches_match_their_elems(self):
        source = CollectorSource(
            "ris",
            "rrc00",
            updates=[
                BgpUpdate.build(
                    timestamp=float(i),
                    collector="rrc00",
                    peer_ip="10.0.0.1",
                    peer_as=64500,
                    prefix=f"198.51.100.{i}/32",
                    as_path=[64500],
                )
                for i in range(5)
            ],
        )
        stream = BgpStream([source])
        batched = [e for b in stream.batches(2) for e in b]
        assert batched == list(stream.elems())
        batched_source = [e for b in source.batches(2) for e in b]
        assert batched_source == list(source.all_elems())


# --------------------------------------------------------------------------- #
# Matcher equivalence
# --------------------------------------------------------------------------- #
class TestCommunityMatcher:
    def _dictionary(self):
        dictionary = BlackholeDictionary()
        dictionary.add(
            CommunityEntry(
                community=Community(64999, 666),
                provider_asn=64999,
                source=CommunitySource.WEB,
            )
        )
        dictionary.add(
            CommunityEntry(
                community=LargeCommunity(64999, 666, 1),
                provider_asn=64999,
                source=CommunitySource.WEB,
            )
        )
        return dictionary

    def test_matches_equals_matched_communities(self):
        dictionary = self._dictionary()
        matcher = dictionary.matcher()
        for cs in (
            CommunitySet(),
            CommunitySet([Community(64999, 666)]),
            CommunitySet([Community(64999, 667)]),
            CommunitySet(large=[LargeCommunity(64999, 666, 1)]),
            CommunitySet([Community(1, 2)], [LargeCommunity(3, 4, 5)]),
        ):
            assert matcher.matches(cs) == bool(dictionary.matched_communities(cs))

    def test_match_flags_vectorise_the_community_column(self):
        dictionary = self._dictionary()
        matcher = dictionary.matcher()
        batch = ElemBatch.from_elems(_elems())
        flags = matcher.match_flags(batch)
        assert flags == [
            bool(dictionary.matched_communities(e.communities)) for e in batch
        ]
        # A batch from a different interner resets the id-keyed memo.
        other = ElemBatch.from_elems(_elems())
        assert other.interner is not batch.interner
        assert matcher.match_flags(other) == flags

    def test_flag_table_is_indexed_by_community_id(self):
        dictionary = self._dictionary()
        matcher = dictionary.matcher()
        batch = ElemBatch.from_elems(_elems())
        table = matcher.flag_table(batch.interner)
        assert len(table) == len(batch.interner)
        for community_id, communities in enumerate(batch.interner.sets):
            assert table[community_id] == int(matcher.matches(communities))
        # The table extends lazily as the interner grows...
        new_id = batch.interner.intern(CommunitySet([Community(64999, 666)]))
        if new_id >= len(table):
            table = matcher.flag_table(batch.interner)
        assert matcher.flag_table(batch.interner)[new_id] == 1
        # ...and resets for a different interner.
        other = ElemBatch.from_elems(_elems()[:1])
        other_table = matcher.flag_table(other.interner)
        assert len(other_table) == len(other.interner)


# --------------------------------------------------------------------------- #
# Column tables: cleaning verdicts and shard split
# --------------------------------------------------------------------------- #
class TestVerdictColumn:
    def _mixed_elems(self):
        return [
            _announce(1.0, "185.1.2.3/32"),      # kept
            _announce(2.0, "10.1.2.3/32"),       # bogon (private)
            _announce(3.0, "1.0.0.0/4"),         # too coarse (< /8)
            _withdraw(4.0, "185.1.2.3/32"),      # kept
            _announce(5.0, "10.1.2.3/32"),       # bogon again (memoised)
        ]

    def test_verdict_column_matches_per_elem_accept(self):
        from repro.core.cleaning import BgpCleaner

        elems = self._mixed_elems()
        batch = ElemBatch.from_elems(elems)
        columnar = BgpCleaner()
        column = columnar.verdict_column(batch)
        elemwise = BgpCleaner()
        accepted = [elemwise.accept(e) for e in elems]
        assert [code == 0 for code in column] == accepted
        assert columnar.stats == elemwise.stats

    def test_verdict_table_resets_on_a_different_interner(self):
        from repro.core.cleaning import BgpCleaner

        cleaner = BgpCleaner()
        elems = self._mixed_elems()
        first = cleaner.verdict_column(ElemBatch.from_elems(elems))
        second = cleaner.verdict_column(ElemBatch.from_elems(elems))
        assert bytes(first) == bytes(second)
        assert cleaner.stats.total == 2 * len(elems)


class TestSplitBatch:
    def _reference_split(self, batch, workers):
        """The pre-columnar per-row bucket loop, as the parity oracle."""
        buckets: dict[int, list[int]] = {}
        for index, prefix in enumerate(batch.prefixes):
            buckets.setdefault(shard_of(prefix, workers), []).append(index)
        return sorted(buckets.items())

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_split_batch_equals_the_per_row_reference(self, workers):
        from repro.exec.plan import _split_batch

        elems = [
            _elem(float(i), f"198.51.{i % 7}.{i}/32", peer_ip=f"10.0.0.{i % 3}")
            for i in range(25)
        ]
        batch = ElemBatch.from_elems(elems)
        split = _split_batch(batch, workers, {})
        reference = self._reference_split(batch, workers)
        assert [shard for shard, _ in split] == [shard for shard, _ in reference]
        for (shard, sub), (_, indices) in zip(split, reference):
            assert list(sub) == [elems[i] for i in indices]
            assert list(sub.prefix_keys) == [batch.prefix_keys[i] for i in indices]
            assert sub.interner is batch.interner
            assert sub.peer_interner is batch.peer_interner

    def test_single_shard_batches_pass_through_unsliced(self):
        from repro.exec.plan import _split_batch

        batch = ElemBatch.from_elems([_announce(1.0, "198.51.100.1/32")] * 4)
        split = _split_batch(batch, 4, {})
        assert len(split) == 1
        assert split[0][1] is batch


# --------------------------------------------------------------------------- #
# Batched-vs-elem parity across backends
# --------------------------------------------------------------------------- #
class TestBatchedParity:
    @pytest.mark.parametrize("plan_knobs", [
        {"workers": 1},
        {"workers": 4, "backend": "inline"},
        {"workers": 4, "backend": "process"},
    ])
    def test_batched_outcomes_are_bit_identical(
        self, small_dataset, small_dictionary, plan_knobs
    ):
        peeringdb = small_dataset.topology.peeringdb
        batched = ExecutionPlan(**plan_knobs).run_inference(
            small_dataset.bgp_stream(),
            small_dictionary,
            end_time=small_dataset.end,
            peeringdb=peeringdb,
            collect_usage_stats=small_dictionary,
        )
        # The oracle: one engine and one usage counter, elem by elem.
        accumulator = GroupingAccumulator()
        elemwise = BlackholingInferenceEngine(
            small_dictionary, peeringdb=peeringdb, on_completed=accumulator.add
        )
        _process_elemwise(elemwise, small_dataset.bgp_stream().elems())
        expected = elemwise.finalise(small_dataset.end)
        if batched.workers > 1:
            expected = sorted(expected, key=observation_sort_key)
        usage_stats = CommunityUsageStats()
        usage_stats.observe_stream(small_dataset.bgp_stream().elems(), small_dictionary)

        assert batched.observations == expected
        assert batched.cleaning_stats == elemwise.cleaner.stats
        assert batched.usage_stats == usage_stats
        assert _stats_without_dispatch(batched.engine_stats) == (
            _stats_without_dispatch(elemwise.stats)
        )
        assert [_event_key(e) for e in batched.accumulator.events()] == [
            _event_key(e) for e in accumulator.events()
        ]
        # The dispatch counters prove which path ran.
        assert elemwise.stats.batches_processed == 0
        assert elemwise.stats.process_calls > 0
        assert batched.engine_stats.process_calls == 0
        assert batched.engine_stats.batches_processed > 0

    def test_batched_usage_stats_pass_matches_elemwise(
        self, small_dataset, small_dictionary
    ):
        elemwise = CommunityUsageStats()
        elemwise.observe_stream(small_dataset.bgp_stream().elems(), small_dictionary)
        batched = ExecutionPlan(batch_size=128).run_usage_stats(
            small_dataset.bgp_stream(), small_dictionary
        )
        assert batched == elemwise

    def test_engine_run_batched_equals_elemwise(self, small_dictionary):
        elems = _elems()
        batched = BlackholingInferenceEngine(small_dictionary)
        batched.run(elems)
        elemwise = BlackholingInferenceEngine(small_dictionary)
        _process_elemwise(elemwise, elems)
        assert batched.finalise(10.0) == elemwise.finalise(10.0)


# --------------------------------------------------------------------------- #
# row_touches: the O(interesting rows) proof
# --------------------------------------------------------------------------- #
class TestRowTouches:
    def _dictionary(self):
        return BlackholeDictionary(
            [
                CommunityEntry(
                    community=Community(64999, 666),
                    provider_asn=64999,
                    source=CommunitySource.WEB,
                )
            ]
        )

    def _stream(self, boring, interesting):
        """``boring`` untagged announcements + one blackholing episode per
        ``interesting`` prefix (tagged announce, then withdrawal)."""
        elems = [
            _announce(float(i), f"185.2.{i % 250}.{i % 200 + 1}/32")
            for i in range(boring)
        ]
        ts = float(boring)
        for i in range(interesting):
            prefix = f"185.1.0.{i + 1}/32"
            elems.append(_announce(ts + 2 * i, prefix, ["64999:666"]))
            elems.append(_withdraw(ts + 2 * i + 1, prefix))
        return elems

    def test_kernel_row_touches_scale_with_interesting_rows_only(self):
        dictionary = self._dictionary()
        for boring in (100, 400):
            elems = self._stream(boring, interesting=5)
            engine = BlackholingInferenceEngine(dictionary)
            _process_in_batches(engine, elems, 64)
            assert engine.stats.elems_processed == len(elems)
            # 2 interesting rows (tagged announce + active withdrawal) per
            # episode, regardless of how many boring rows surround them.
            assert engine.stats.row_touches == 10

    def test_per_elem_path_touches_every_kept_row(self):
        dictionary = self._dictionary()
        elems = self._stream(50, interesting=3)
        engine = BlackholingInferenceEngine(dictionary)
        _process_elemwise(engine, elems)
        assert engine.stats.row_touches == len(elems)

    def test_untagged_rows_over_active_state_are_still_touched(self):
        dictionary = self._dictionary()
        elems = [
            _announce(1.0, "185.1.0.1/32", ["64999:666"]),
            _announce(2.0, "185.1.0.1/32"),  # implicit withdrawal
            _announce(3.0, "185.1.0.1/32"),  # inactive again: skipped
        ]
        engine = BlackholingInferenceEngine(dictionary)
        # One row per batch: the third batch sees no active state and no
        # tag, so its row is bulk-skipped; the first two are touched.
        _process_in_batches(engine, elems, 1)
        assert engine.stats.row_touches == 2
        assert engine.stats.observations_started == 1
        assert engine.stats.observations_ended == 1


# --------------------------------------------------------------------------- #
# Property test: random streams, both dispatch paths
# --------------------------------------------------------------------------- #
_PROPERTY_DICTIONARY = BlackholeDictionary(
    [
        CommunityEntry(
            community=Community(64500, 666),
            provider_asn=64500,
            source=CommunitySource.WEB,
        )
    ]
)

_community_sets = st.lists(
    st.sampled_from(
        [
            Community(64500, 666),
            Community(64500, 100),
            Community(65000, 666),
        ]
    ),
    max_size=2,
).map(CommunitySet)

_scenario_elems = st.lists(
    st.builds(
        lambda ts, kind, host, length, communities, peer: StreamElem(
            timestamp=float(ts),
            elem_type=kind,
            project="ris",
            collector="rrc00",
            peer_ip=peer,
            peer_as=64500,
            prefix=Prefix.make(4, host << (32 - length), length),
            communities=communities,
        ),
        st.integers(min_value=0, max_value=100),
        st.sampled_from([ElemType.RIB, ElemType.ANNOUNCEMENT, ElemType.WITHDRAWAL]),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([24, 32]),
        _community_sets,
        st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    ),
    max_size=40,
)


class TestBatchedDispatchProperty:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(elems=_scenario_elems, batch_size=st.integers(min_value=1, max_value=7))
    def test_random_streams_produce_identical_observations(self, elems, batch_size):
        elems = sorted(elems, key=lambda e: e.timestamp)

        def run(process, *args):
            engine = BlackholingInferenceEngine(_PROPERTY_DICTIONARY)
            process(engine, elems, *args)
            observations = engine.finalise(1000.0)
            return observations, engine.stats, engine.cleaner.stats

        batched_obs, batched_stats, batched_clean = run(_process_in_batches, batch_size)
        elem_obs, elem_stats, elem_clean = run(_process_elemwise)
        assert batched_obs == elem_obs
        assert batched_clean == elem_clean
        assert _stats_without_dispatch(batched_stats) == (
            _stats_without_dispatch(elem_stats)
        )

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(elems=_scenario_elems, batch_size=st.integers(min_value=1, max_value=7))
    def test_random_streams_produce_identical_usage_stats(self, elems, batch_size):
        elemwise = CommunityUsageStats()
        elemwise.observe_stream(elems, _PROPERTY_DICTIONARY)
        batched = CommunityUsageStats()
        batches = list(stream_batches(elems, batch_size))
        for batch in batches:
            batched.observe_batch(batch, _PROPERTY_DICTIONARY)
        assert batched == elemwise
        assert assert_columns_match_rows(batches, batch_size) == elems


# --------------------------------------------------------------------------- #
# Adversarial orderings: the state transitions the kernel must not miss
# --------------------------------------------------------------------------- #
# Operations over a tiny pool of (peer, prefix) pairs, so the generated
# streams hit withdrawal-before-announce, re-announcement of already-active
# prefixes and untagged-announce-as-implicit-withdrawal constantly -- the
# orderings where the kernel's bulk-skip and mid-batch activation logic
# could diverge from per-elem dispatch.
_ADVERSARIAL_PREFIXES = [
    "185.1.0.1/32",
    "185.1.0.2/32",
    "10.9.8.7/32",  # bogon: exercises dropped rows over active state
]
_ADVERSARIAL_PEERS = ["10.0.0.1", "10.0.0.2"]

_adversarial_ops = st.lists(
    st.tuples(
        st.sampled_from(["announce_tagged", "announce_untagged", "withdraw", "rib_tagged"]),
        st.sampled_from(_ADVERSARIAL_PREFIXES),
        st.sampled_from(_ADVERSARIAL_PEERS),
    ),
    max_size=30,
)


def _adversarial_stream(ops):
    elems = []
    for index, (op, prefix, peer) in enumerate(ops):
        ts = float(index)
        if op == "withdraw":
            elems.append(_elem(ts, prefix, ElemType.WITHDRAWAL, peer_ip=peer))
        elif op == "announce_untagged":
            elems.append(_elem(ts, prefix, peer_ip=peer))
        elif op == "rib_tagged":
            elems.append(
                _elem(ts, prefix, ElemType.RIB, ["64999:666"], peer_ip=peer)
            )
        else:
            elems.append(_elem(ts, prefix, communities=["64999:666"], peer_ip=peer))
    return elems


class TestAdversarialOrderings:
    _dictionary = BlackholeDictionary(
        [
            CommunityEntry(
                community=Community(64999, 666),
                provider_asn=64999,
                source=CommunitySource.WEB,
            )
        ]
    )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_adversarial_ops, batch_size=st.integers(min_value=1, max_value=9))
    def test_kernel_parity_on_adversarial_orderings(self, ops, batch_size):
        elems = _adversarial_stream(ops)

        def run(process, *args):
            engine = BlackholingInferenceEngine(self._dictionary)
            process(engine, elems, *args)
            observations = engine.finalise(10_000.0)
            return observations, engine.stats, engine.cleaner.stats

        batched_obs, batched_stats, batched_clean = run(_process_in_batches, batch_size)
        elem_obs, elem_stats, elem_clean = run(_process_elemwise)
        assert batched_obs == elem_obs
        # Every CleaningStats counter, bit for bit.
        assert batched_clean == elem_clean
        # Every EngineStats counter except the dispatch/touch counters,
        # which intentionally differ between the paths.
        assert _stats_without_dispatch(batched_stats) == (
            _stats_without_dispatch(elem_stats)
        )
        # The kernel never does more Python-level row work than per-elem.
        assert batched_stats.row_touches <= elem_stats.row_touches

    def test_withdrawal_before_announce_is_a_no_op(self):
        elems = [
            _withdraw(1.0, "185.1.0.1/32"),
            _announce(2.0, "185.1.0.1/32", ["64999:666"]),
        ]
        engine = BlackholingInferenceEngine(self._dictionary)
        _process_in_batches(engine, elems, 1)
        assert engine.stats.observations_started == 1
        assert engine.stats.observations_ended == 0
        # The inactive withdrawal is skipped by the kernel entirely.
        assert engine.stats.row_touches == 1

    def test_reannouncement_of_active_prefix_keeps_the_start_time(self):
        elems = [
            _announce(1.0, "185.1.0.1/32", ["64999:666"]),
            _announce(5.0, "185.1.0.1/32", ["64999:666"]),
            _withdraw(9.0, "185.1.0.1/32"),
        ]

        def run(process, *args):
            engine = BlackholingInferenceEngine(self._dictionary)
            process(engine, elems, *args)
            return engine.finalise(100.0)

        batched, elemwise = run(_process_in_batches, 4), run(_process_elemwise)
        assert batched == elemwise
        assert len(batched) == 1
        assert batched[0].start_time == 1.0
        assert batched[0].end_time == 9.0

    def test_mid_batch_activation_is_seen_by_later_rows(self):
        # Tagged announce and its implicit withdrawal inside ONE batch: the
        # untagged row must not be bulk-skipped even though the peer-prefix
        # was inactive when the batch started.
        elems = [
            _announce(1.0, "185.1.0.1/32", ["64999:666"]),
            _announce(2.0, "185.1.0.1/32"),
        ]
        engine = BlackholingInferenceEngine(self._dictionary)
        _process_in_batches(engine, elems, 10)
        observations = engine.finalise(100.0)
        assert len(observations) == 1
        assert observations[0].end_time == 2.0
