"""Tests for the streaming execution core (:mod:`repro.exec`).

Covers the three acceptance properties of the shard-parallel refactor:

* deterministic k-way merge, including tie-breaking on equal timestamps
  across and within sources;
* parity between serial (``workers=1``) and sharded (``workers=4``)
  execution -- same observations, same grouped events -- on both the
  in-process and forked backends;
* end-to-end laziness: a one-shot generator can be streamed through the
  pipeline, and observations close while the stream is still being
  consumed (nothing buffers the full elem stream as a list).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import pytest

from repro.analysis.pipeline import StudyPipeline
from repro.bgp.message import BgpUpdate
from repro.core.events import BlackholingObservation
from repro.core.grouping import GroupingAccumulator, correlate_prefix_events
from repro.exec import (
    ExecutionPlan,
    PipelineContext,
    Stage,
    observation_sort_key,
    shard_of,
    shard_predicate,
)
from repro.stream.merger import BgpStream, merge_sources
from repro.stream.source import CollectorSource


def _update(ts, prefix="203.0.113.7/32", collector="rrc00", peer_as=64500):
    return BgpUpdate.build(
        timestamp=ts,
        collector=collector,
        peer_ip="10.0.0.1",
        peer_as=peer_as,
        prefix=prefix,
        as_path=[peer_as, 64999],
    )


def _event_key(event):
    return (
        str(event.prefix),
        event.start_time,
        event.end_time,
        frozenset(event.observations),
    )


# --------------------------------------------------------------------------- #
# Merge determinism
# --------------------------------------------------------------------------- #
class TestMergeDeterminism:
    def _tied_sources(self):
        # Both sources carry elems at the exact same timestamps.
        left = CollectorSource(
            "ris",
            "rrc00",
            updates=[_update(1.0, prefix="198.51.100.1/32"), _update(2.0)],
        )
        right = CollectorSource(
            "pch",
            "pch-ix",
            updates=[
                _update(1.0, prefix="198.51.100.2/32", collector="pch-ix"),
                _update(2.0, prefix="198.51.100.3/32", collector="pch-ix"),
            ],
        )
        return [left, right]

    def test_equal_timestamps_break_ties_by_source_order(self):
        merged = [spec[7]() for spec in merge_sources(self._tied_sources())]
        assert [e.timestamp for e in merged] == [1.0, 1.0, 2.0, 2.0]
        # For each tied timestamp the first-listed source wins.
        assert [e.project for e in merged] == ["ris", "pch", "ris", "pch"]

    def test_merge_is_reproducible_across_runs(self):
        sources = self._tied_sources()
        first = [spec[7]().sort_key() for spec in merge_sources(sources)]
        second = [spec[7]().sort_key() for spec in merge_sources(sources)]
        assert first == second

    def test_equal_timestamps_within_one_source_keep_order(self):
        source = CollectorSource(
            "ris",
            "rrc00",
            updates=[
                _update(5.0, prefix="198.51.100.1/32"),
                _update(5.0, prefix="198.51.100.2/32"),
            ],
        )
        merged = [spec[7]() for spec in merge_sources([source])]
        assert [str(e.prefix) for e in merged] == [
            "198.51.100.1/32",
            "198.51.100.2/32",
        ]

    def test_streams_are_lazy_iterators(self):
        stream = BgpStream(self._tied_sources())
        assert not isinstance(stream.updates(), list)
        assert not isinstance(stream.rib_elems(), list)
        assert iter(stream.updates()) is not None

    def test_shard_predicates_partition_the_stream(self):
        stream = BgpStream(self._tied_sources())
        full = [e.sort_key() for e in stream.elems()]
        sharded = []
        for shard in range(3):
            sharded.extend(
                e.sort_key() for e in stream.elems(shard_predicate(shard, 3))
            )
        assert sorted(sharded) == sorted(full)


# --------------------------------------------------------------------------- #
# Sharding primitives
# --------------------------------------------------------------------------- #
class TestSharding:
    def test_shard_of_is_stable_and_in_range(self):
        prefixes = [_update(0.0, prefix=f"10.0.{i}.0/24").prefix for i in range(64)]
        for workers in (1, 2, 4, 7):
            shards = [shard_of(p, workers) for p in prefixes]
            assert all(0 <= s < workers for s in shards)
            assert shards == [shard_of(p, workers) for p in prefixes]
        # More than one shard actually receives prefixes.
        assert len(set(shard_of(p, 4) for p in prefixes)) > 1

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers=0)
        with pytest.raises(ValueError):
            ExecutionPlan(batch_size=0)
        with pytest.raises(ValueError):
            ExecutionPlan(batch_size=None)
        with pytest.raises(ValueError):
            ExecutionPlan(backend="threads")
        assert ExecutionPlan(workers=1).resolved_backend() == "serial"
        assert ExecutionPlan(workers=2, backend="inline").resolved_backend() == "inline"


# --------------------------------------------------------------------------- #
# Incremental grouping
# --------------------------------------------------------------------------- #
class TestGroupingAccumulator:
    def _observations(self, study_result) -> list[BlackholingObservation]:
        return study_result.observations

    def test_incremental_equals_batch(self, study_result):
        observations = self._observations(study_result)
        accumulator = GroupingAccumulator()
        for observation in observations:
            accumulator.add(observation)
        incremental = accumulator.events()
        batch = correlate_prefix_events(observations)
        assert [_event_key(e) for e in incremental] == [_event_key(e) for e in batch]

    def test_shard_merge_equals_whole(self, study_result):
        observations = self._observations(study_result)
        whole = GroupingAccumulator().add_all(observations)
        shards = [GroupingAccumulator() for _ in range(4)]
        for observation in observations:
            shards[shard_of(observation.prefix, 4)].add(observation)
        merged = GroupingAccumulator()
        for shard in shards:
            merged.merge(shard)
        assert len(merged) == len(whole)
        assert [_event_key(e) for e in merged.events()] == [
            _event_key(e) for e in whole.events()
        ]

    def test_merge_rejects_mismatched_settings(self):
        with pytest.raises(ValueError):
            GroupingAccumulator(timeout=300.0).merge(GroupingAccumulator(timeout=60.0))


# --------------------------------------------------------------------------- #
# Serial vs sharded parity
# --------------------------------------------------------------------------- #
class TestShardedParity:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_workers4_matches_serial(self, small_dataset, study_result, backend):
        sharded = StudyPipeline(
            small_dataset, workers=4, backend=backend
        ).run()
        assert set(sharded.observations) == set(study_result.observations)
        # The sharded observation list is canonically ordered.
        keys = [observation_sort_key(o) for o in sharded.observations]
        assert keys == sorted(keys)
        # Grouped events are identical (same order, same membership).
        assert [_event_key(e) for e in sharded.events] == [
            _event_key(e) for e in study_result.events
        ]
        assert [_event_key(e) for e in sharded.grouped_periods] == [
            _event_key(e) for e in study_result.grouped_periods
        ]
        # Fused usage statistics match the separate serial pass.
        assert (
            sharded.usage_stats.total_announcements
            == study_result.usage_stats.total_announcements
        )
        assert sharded.usage_stats.co_occurred == study_result.usage_stats.co_occurred
        # Aggregate report views agree.
        assert sharded.report.providers() == study_result.report.providers()
        assert sharded.report.users() == study_result.report.users()
        assert sharded.report.prefixes() == study_result.report.prefixes()

    def test_batch_size_does_not_change_results(self, small_dataset, study_result):
        batched = StudyPipeline(small_dataset, plan=ExecutionPlan(batch_size=37)).run()
        assert batched.observations == study_result.observations

    def test_sharded_engine_stats_sum_to_serial(self, small_dataset, study_result):
        sharded = StudyPipeline(small_dataset, workers=3, backend="inline").run()
        serial_stats = study_result.context.get("engine_stats")
        sharded_stats = sharded.context.get("engine_stats")
        # Every counter sums to the serial run's except the batch count:
        # each shard's engine receives its own sub-batch of a split batch.
        assert dataclasses.replace(sharded_stats, batches_processed=0) == (
            dataclasses.replace(serial_stats, batches_processed=0)
        )
        assert sharded_stats.batches_processed >= serial_stats.batches_processed
        assert sharded.engine is None
        assert study_result.engine is not None


# --------------------------------------------------------------------------- #
# Laziness / incrementality
# --------------------------------------------------------------------------- #
class _GeneratorStreamDataset:
    """Wraps a dataset so ``bgp_stream`` returns one-shot generators."""

    def __init__(self, inner, state: dict) -> None:
        self._inner = inner
        self._state = state

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def bgp_stream(self, projects=None, filters=()):
        def generate() -> Iterator:
            for elem in self._inner.bgp_stream(projects, filters):
                self._state["yielded"] += 1
                yield elem

        return generate()


class TestStreamingLaziness:
    def test_study_pipeline_accepts_one_shot_generators(
        self, small_dataset, study_result
    ):
        state = {"yielded": 0}
        result = StudyPipeline(_GeneratorStreamDataset(small_dataset, state)).run()
        assert result.observations == study_result.observations
        assert state["yielded"] > 0

    def test_observations_close_while_stream_is_consumed(self, small_dataset):
        state = {"yielded": 0}
        closed_at: list[int] = []
        context = PipelineContext(
            _GeneratorStreamDataset(small_dataset, state),
            observation_callback=lambda observation: closed_at.append(
                state["yielded"]
            ),
        )
        # Request only the report: the fused inference stage makes a single
        # pass over one generator.
        context.get("report")
        total = state["yielded"]
        assert closed_at, "no observation closed during the run"
        # If any stage had materialised the stream (list()), the first
        # closure would only happen after the final elem was yielded.
        assert closed_at[0] < total
        # And the fused pass produced the usage statistics along the way.
        assert context.has("usage_stats")


# --------------------------------------------------------------------------- #
# Context caching
# --------------------------------------------------------------------------- #
class TestPipelineContext:
    def test_stats_do_not_trigger_inference(self, small_dataset):
        context = PipelineContext(small_dataset)
        context.get("usage_stats")
        assert not context.has("observations")

    def test_unknown_artifact_raises(self, small_dataset):
        with pytest.raises(KeyError) as excinfo:
            PipelineContext(small_dataset).get("nonexistent")
        # The error names the unknown artifact and the known ones.
        assert "nonexistent" in str(excinfo.value)
        assert "report" in str(excinfo.value)

    def test_artifacts_are_cached(self, small_dataset):
        context = PipelineContext(small_dataset)
        assert context.get("report") is context.get("report")
        assert context.has("observations")

    def test_circular_stage_dependency_raises(self, small_dataset):
        stages = (
            Stage("ouroboros", ("tail",), lambda context: context.get("head")),
            Stage("head", ("head",), lambda context: {"head": context.get("tail")}),
        )
        context = PipelineContext(small_dataset, stages=stages)
        with pytest.raises(RuntimeError, match="circular stage dependency"):
            context.get("tail")
        # The failed build does not leave the stage marked as in-progress.
        with pytest.raises(RuntimeError, match="circular stage dependency"):
            context.get("tail")

    def test_opportunistic_artifacts_never_clobber(self, small_dataset):
        stages = (
            Stage("primary", ("wanted",), lambda context: {"wanted": "primary"}),
            Stage(
                "greedy",
                ("extra",),
                lambda context: {"extra": "greedy", "wanted": "clobbered"},
            ),
        )
        context = PipelineContext(small_dataset, stages=stages)
        assert context.get("wanted") == "primary"
        assert context.get("extra") == "greedy"
        # The greedy stage's opportunistic "wanted" must not replace the
        # already-cached product of its owning stage.
        assert context.get("wanted") == "primary"

    def test_opportunistic_artifacts_are_adopted_when_first(self, small_dataset):
        stages = (
            Stage("primary", ("wanted",), lambda context: {"wanted": "primary"}),
            Stage(
                "greedy",
                ("extra",),
                lambda context: {"extra": "greedy", "wanted": "opportunistic"},
            ),
        )
        context = PipelineContext(small_dataset, stages=stages)
        assert context.get("extra") == "greedy"
        # With no cached value yet, the opportunistic product is kept and
        # the owning stage never needs to run.
        assert context.get("wanted") == "opportunistic"
