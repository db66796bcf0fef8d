"""Tests for the single inference pass behind :class:`ExecutionPlan`.

The three public methods are wrappers over one private pass; these tests
pin what the wrappers promise beyond result parity (which the exec, fused,
batch, spill and lazy-ingest suites cover): which layout and label a run
gets, that a stats-only pass never shards, that the wrappers do not route
through one another, and that more shards than one byte can name still
split batches exactly.  The study tests pin that an eager study streams
its input once, with the usage statistics collected in the inference pass.
The dispatch tests pin that every default layout -- study, sharded plans,
campaign, distributed fleet -- reaches its engines only through the column
kernel.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

import repro.exec.plan as plan_module
from repro.analysis.pipeline import StudyPipeline
from repro.dictionary.inference import CommunityUsageStats
from repro.exec.campaign import BASELINE, NO_BUNDLING, ScenarioMatrix, StudyCampaign
from repro.exec.plan import ExecutionPlan, InferenceRequest
from repro.exec.store import DiskStore
from repro.stream.batch import BATCH_SIZE


def _refuse(*args, **kwargs):  # pragma: no cover - trap
    raise AssertionError("must not be called")


def _run(plan, dataset, dictionary, stream=None, **knobs):
    return plan.run_inference(
        dataset.bgp_stream() if stream is None else stream,
        dictionary,
        end_time=dataset.end,
        peeringdb=dataset.topology.peeringdb,
        **knobs,
    )


def _plan(batch_size=None, **knobs):
    """A plan with ``batch_size`` rows per batch (``None``: the default)."""
    if batch_size is not None:
        knobs["batch_size"] = batch_size
    return ExecutionPlan(**knobs)


def _without_dispatch(stats):
    return dataclasses.replace(stats, process_calls=0, batches_processed=0)


class TestLayouts:
    @pytest.mark.parametrize("knobs, plain, label", [
        ({}, False, "serial"),
        ({"workers": 2, "backend": "inline"}, False, "inline"),
        ({"workers": 2, "backend": "process"}, False, "process"),
        # A plain iterable cannot be re-filtered per fork worker.
        ({"workers": 2, "backend": "process"}, True, "inline"),
    ])
    def test_backend_labels(self, small_dataset, small_dictionary, knobs, plain, label):
        plan = ExecutionPlan(**knobs)
        stream = small_dataset.bgp_stream()
        if plain:
            stream = iter(list(stream.elems()))
        outcome = _run(plan, small_dataset, small_dictionary, stream=stream)
        assert outcome.backend == label
        assert outcome.workers == plan.workers
        # Only a serial run has one engine to expose.
        assert (outcome.engine is not None) == (label == "serial")

    def test_more_than_255_shards_match_serial(self, small_dataset, small_dictionary):
        # Shard ids above 255 do not fit the one-byte shard column, so the
        # split falls back to per-row buckets.
        serial = _run(
            ExecutionPlan(batch_size=64), small_dataset, small_dictionary,
            collect_usage_stats=small_dictionary,
        )
        sharded = _run(
            ExecutionPlan(workers=300, backend="inline", batch_size=64),
            small_dataset, small_dictionary, collect_usage_stats=small_dictionary,
        )
        assert sharded.workers == 300
        assert sharded.observations == sorted(
            serial.observations, key=plan_module.observation_sort_key
        )
        assert sharded.cleaning_stats == serial.cleaning_stats
        assert sharded.usage_stats == serial.usage_stats
        assert _without_dispatch(sharded.engine_stats) == _without_dispatch(
            serial.engine_stats
        )
        assert sharded.engine_stats.batches_processed > serial.engine_stats.batches_processed


class TestWrappers:
    @pytest.mark.parametrize("batch_size", [None, 128])
    def test_inline_stats_pass_never_shards(
        self, small_dataset, small_dictionary, monkeypatch, batch_size
    ):
        expected = _plan(batch_size).run_usage_stats(
            small_dataset.bgp_stream(), small_dictionary
        )
        monkeypatch.setattr(plan_module, "shard_of", _refuse)
        monkeypatch.setattr(plan_module, "_split_batch", _refuse)
        plan = _plan(batch_size, workers=4, backend="inline")
        stats = plan.run_usage_stats(small_dataset.bgp_stream(), small_dictionary)
        assert stats == expected

    def test_public_methods_do_not_call_each_other(
        self, small_dataset, small_dictionary, monkeypatch
    ):
        plan = ExecutionPlan()
        expected = _run(plan, small_dataset, small_dictionary).observations
        monkeypatch.setattr(ExecutionPlan, "run_inference_many", _refuse)
        assert _run(plan, small_dataset, small_dictionary).observations == expected
        stats = plan.run_usage_stats(small_dataset.bgp_stream(), small_dictionary)
        assert stats.total_announcements > 0
        monkeypatch.undo()
        monkeypatch.setattr(ExecutionPlan, "run_inference", _refuse)
        monkeypatch.setattr(ExecutionPlan, "run_usage_stats", _refuse)
        (outcome,) = plan.run_inference_many(
            small_dataset.bgp_stream(),
            [InferenceRequest(small_dictionary)],
            end_time=small_dataset.end,
            peeringdb=small_dataset.topology.peeringdb,
        )
        assert outcome.observations == expected


class TestStudyPasses:
    @pytest.mark.parametrize("batch_size", [None, 512])
    def test_study_streams_once(self, small_dataset, batch_size):
        result = StudyPipeline(small_dataset, plan=_plan(batch_size)).run()
        assert result.context.stream_passes == 1
        assert result.context.build_counts["usage_stats"] == 0
        # Independent oracle: per-elem statistics over the stream's elems.
        expected = CommunityUsageStats()
        expected.observe_stream(small_dataset.bgp_stream().elems(), result.dictionary)
        assert result.usage_stats == expected

    def test_inferred_dictionary_study_streams_twice(self, small_dataset):
        # The engine's dictionary is derived from the statistics, so they
        # need a pass of their own before inference.
        result = StudyPipeline(small_dataset, use_inferred_dictionary=True).run()
        assert result.context.stream_passes == 2
        assert result.context.build_counts["usage_stats"] == 1


class TestDefaultDispatch:
    """No default layout calls ``process()``: batches are the one path."""

    @staticmethod
    def _assert_kernel_only(stats):
        assert stats.process_calls == 0
        assert stats.batches_processed > 0

    def test_serial_study_dispatches_one_batch_per_chunk(self, small_dataset):
        result = StudyPipeline(small_dataset).run()
        stats = result.context.get("execution_outcome").engine_stats
        self._assert_kernel_only(stats)
        elems = sum(1 for _ in small_dataset.bgp_stream().elems())
        assert stats.elems_processed == elems
        assert stats.batches_processed == math.ceil(elems / BATCH_SIZE)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_sharded_plans_dispatch_batches(
        self, small_dataset, small_dictionary, backend
    ):
        plan = ExecutionPlan(workers=4, backend=backend)
        outcome = _run(plan, small_dataset, small_dictionary)
        assert outcome.backend == backend
        self._assert_kernel_only(outcome.engine_stats)

    def test_campaign_cells_dispatch_batches(self, small_dataset):
        results = StudyCampaign(
            ScenarioMatrix(small_dataset.config, ablations=(BASELINE, NO_BUNDLING)),
            dataset_factory=lambda config: small_dataset,
        ).run()
        for result in results:
            self._assert_kernel_only(
                result.context.get("execution_outcome").engine_stats
            )

    def test_distributed_done_records_dispatch_batches(self, small_dataset, tmp_path):
        outcome = StudyCampaign(
            ScenarioMatrix(small_dataset.config, ablations=(BASELINE, NO_BUNDLING)),
            dataset_factory=lambda config: small_dataset,
            store=DiskStore(tmp_path),
        ).run_distributed(workers=2, lease_ttl=30.0)
        assert outcome.complete, outcome.status.counts
        assert len(outcome.done) == 2
        for record in outcome.done.values():
            assert record["process_calls"] == 0
            assert record["batches_processed"] > 0
