"""Tests for the single inference pass behind :class:`ExecutionPlan`.

The three public methods are wrappers over one private pass; these tests
pin what the wrappers promise beyond result parity (which the exec, fused,
batch, spill and lazy-ingest suites cover): which layout and label a run
gets, that a stats-only pass never shards, that the wrappers do not route
through one another, and that more shards than one byte can name still
split batches exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.exec.plan as plan_module
from repro.exec.plan import ExecutionPlan, InferenceRequest


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
        expected = ExecutionPlan(batch_size=batch_size).run_usage_stats(
            small_dataset.bgp_stream(), small_dictionary
        )
        monkeypatch.setattr(plan_module, "shard_of", _refuse)
        monkeypatch.setattr(plan_module, "_split_batch", _refuse)
        plan = ExecutionPlan(workers=4, backend="inline", batch_size=batch_size)
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
