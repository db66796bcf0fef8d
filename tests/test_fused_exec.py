"""Tests for fused multi-engine execution (one stream pass, N engines).

Covers the acceptance properties of the fused-sweep optimisation:

* plan-level parity -- :meth:`ExecutionPlan.run_inference_many` produces,
  for every request, exactly the outcome :meth:`ExecutionPlan.run_inference`
  would have produced for the same knobs (observation lists, stats, grouped
  events), on the serial, inline and process backends;
* campaign-level fusion -- a 3-cell ablation grid whose dictionaries are
  resolvable up front performs exactly ONE elem-stream iteration for all
  cells (asserted via the stream-pass / stage-build counters, not timing),
  with per-cell analysis rows identical to independent runs;
* needs-pruning -- ``StudyCampaign.run(analyses=...)`` over inference-free
  artifacts never touches the inference machinery at all, in the API and
  through ``repro sweep --report``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.pipeline import StudyPipeline
from repro.cli import main
from repro.exec import ExecutionPlan, InferenceRequest
from repro.exec.campaign import (
    BASELINE,
    NO_BUNDLING,
    AblationSpec,
    ScenarioMatrix,
    StudyCampaign,
)

#: A third documented-dictionary variant: only the grouping knob differs, so
#: all three cells of the grid below share one up-front-resolvable dictionary.
QUICK_GROUPING = AblationSpec("quick-grouping", grouping_timeout=3600.0)


def _event_key(event):
    return (
        str(event.prefix),
        event.start_time,
        event.end_time,
        frozenset(event.observations),
    )


def _requests(dictionary):
    return [
        InferenceRequest(dictionary=dictionary),
        InferenceRequest(dictionary=dictionary, enable_bundling=False),
        InferenceRequest(dictionary=dictionary, grouping_timeout=3600.0),
    ]


# --------------------------------------------------------------------------- #
# Plan-level parity
# --------------------------------------------------------------------------- #
class TestRunInferenceMany:
    @pytest.mark.parametrize("plan_knobs", [
        {"workers": 1},
        {"workers": 4, "backend": "inline"},
        {"workers": 4, "backend": "process"},
    ])
    def test_fused_outcomes_match_independent_runs(
        self, small_dataset, small_dictionary, plan_knobs
    ):
        plan = ExecutionPlan(**plan_knobs)
        peeringdb = small_dataset.topology.peeringdb
        fused = plan.run_inference_many(
            small_dataset.bgp_stream(),
            _requests(small_dictionary),
            end_time=small_dataset.end,
            peeringdb=peeringdb,
        )
        assert len(fused) == 3
        for index, (request, outcome) in enumerate(zip(_requests(small_dictionary), fused)):
            alone = plan.run_inference(
                small_dataset.bgp_stream(),
                request.dictionary,
                end_time=small_dataset.end,
                peeringdb=peeringdb,
                enable_bundling=request.enable_bundling,
                grouping_timeout=request.grouping_timeout,
            )
            # Same observations in the same canonical order, same counters,
            # same grouped events: bit-identical to the unfused pass.
            assert outcome.observations == alone.observations
            assert dataclasses.replace(outcome.engine_stats, rows_materialised=0) == (
                dataclasses.replace(alone.engine_stats, rows_materialised=0)
            )
            # A lazy row is built once per pass, by the first engine that
            # indexes it: the first request's engine sees every batch first,
            # the later ones reuse its rows.
            if index == 0:
                assert outcome.engine_stats.rows_materialised == (
                    alone.engine_stats.rows_materialised
                )
            else:
                assert outcome.engine_stats.rows_materialised <= (
                    alone.engine_stats.rows_materialised
                )
            assert outcome.cleaning_stats == alone.cleaning_stats
            assert [_event_key(e) for e in outcome.accumulator.events()] == [
                _event_key(e) for e in alone.accumulator.events()
            ]

    def test_fused_usage_stats_match_the_standalone_pass(
        self, small_dataset, small_dictionary
    ):
        plan = ExecutionPlan()
        fused = plan.run_inference_many(
            small_dataset.bgp_stream(),
            _requests(small_dictionary),
            end_time=small_dataset.end,
            peeringdb=small_dataset.topology.peeringdb,
            collect_usage_stats=small_dictionary,
        )
        standalone = plan.run_usage_stats(small_dataset.bgp_stream(), small_dictionary)
        # One shared stats object, attached to every outcome.
        assert all(outcome.usage_stats is fused[0].usage_stats for outcome in fused)
        stats = fused[0].usage_stats
        assert stats.total_announcements == standalone.total_announcements
        assert stats.co_occurred == standalone.co_occurred
        assert stats.length_counts == standalone.length_counts

    def test_serial_outcomes_expose_their_engines(
        self, small_dataset, small_dictionary
    ):
        fused = ExecutionPlan().run_inference_many(
            small_dataset.bgp_stream(),
            _requests(small_dictionary)[:2],
            end_time=small_dataset.end,
        )
        engines = [outcome.engine for outcome in fused]
        assert all(engine is not None for engine in engines)
        assert engines[0] is not engines[1]

    def test_batch_size_does_not_change_fused_results(
        self, small_dataset, small_dictionary
    ):
        outcomes = {
            batch_size: ExecutionPlan(batch_size=batch_size).run_inference_many(
                small_dataset.bgp_stream(),
                _requests(small_dictionary),
                end_time=small_dataset.end,
            )
            for batch_size in (37, 512)
        }
        assert [o.observations for o in outcomes[512]] == [
            o.observations for o in outcomes[37]
        ]

    def test_empty_request_list_is_a_no_op(self, small_dataset):
        assert ExecutionPlan().run_inference_many(
            small_dataset.bgp_stream(), [], end_time=small_dataset.end
        ) == []

    def test_per_request_observation_callbacks(self, small_dataset, small_dictionary):
        seen: list[list] = [[], []]
        requests = [
            InferenceRequest(dictionary=small_dictionary, on_observation=seen[0].append),
            InferenceRequest(
                dictionary=small_dictionary,
                enable_bundling=False,
                on_observation=seen[1].append,
            ),
        ]
        fused = ExecutionPlan().run_inference_many(
            small_dataset.bgp_stream(), requests, end_time=small_dataset.end
        )
        assert set(seen[0]) == set(fused[0].observations)
        assert set(seen[1]) == set(fused[1].observations)
        assert seen[0] != seen[1]


# --------------------------------------------------------------------------- #
# Campaign-level fusion
# --------------------------------------------------------------------------- #
class TestFusedCampaign:
    @pytest.fixture(scope="class")
    def fused_results(self, small_dataset):
        matrix = ScenarioMatrix(
            small_dataset.config,
            ablations=(BASELINE, NO_BUNDLING, QUICK_GROUPING),
        )
        campaign = StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)
        return campaign.run()

    def test_one_stream_pass_feeds_the_whole_grid(self, fused_results):
        counts = fused_results.build_counts
        # All three cells share one stream identity and one up-front
        # dictionary: the whole grid is ONE elem-stream iteration, with the
        # usage statistics collected inline.
        assert counts["stream_pass"] == 1
        assert counts["inference"] == 1
        assert counts["usage_stats"] == 0
        assert counts["dataset"] == 1
        assert counts["dictionary"] == 1

    def test_cells_match_independent_pipelines(
        self, fused_results, small_dataset, study_result
    ):
        baseline = fused_results.get(ablation="baseline")
        assert baseline.observations == study_result.observations
        for spec, knobs in (
            (NO_BUNDLING, {"enable_bundling": False}),
            (QUICK_GROUPING, {"grouping_timeout": 3600.0}),
        ):
            cell = fused_results.get(ablation=spec)
            alone = StudyPipeline(small_dataset, **knobs).run()
            assert cell.observations == alone.observations
            assert [_event_key(e) for e in cell.events] == [
                _event_key(e) for e in alone.events
            ]

    def test_analysis_rows_match_independent_pipelines(
        self, fused_results, small_dataset
    ):
        alone = StudyPipeline(small_dataset, enable_bundling=False).run()
        table = fused_results.tabulate("table1")
        cell_rows = {
            cell.ablation.name: result.rows for cell, _, result in table.entries
        }
        assert cell_rows["no-bundling"] == alone.analysis("table1").rows

    def test_adopt_validates_stage_and_coverage(self, small_dataset):
        from repro.exec import PipelineContext

        context = PipelineContext(small_dataset)
        with pytest.raises(KeyError):
            context.adopt("no-such-stage", {})
        # Partial adoption would let a later get() silently re-run the
        # whole stage, defeating the fusion -- refused up front.
        with pytest.raises(ValueError, match="declared products"):
            context.adopt("inference", {"observations": []})

    def test_lazily_used_cells_are_not_rerun(self, small_dataset):
        matrix = ScenarioMatrix(
            small_dataset.config, ablations=(BASELINE, NO_BUNDLING)
        )
        campaign = StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)
        results = campaign.results()
        # Drive one cell lazily (unfused), then run the fused scheduler:
        # only the remaining cell joins a (one-engine) fused pass.
        results.get(ablation="baseline").report
        assert campaign.cache.build_counts["inference"] == 1
        campaign.run()
        assert campaign.cache.build_counts["inference"] == 2
        assert campaign.cache.build_counts["stream_pass"] == 2


# --------------------------------------------------------------------------- #
# Needs-pruned scheduling
# --------------------------------------------------------------------------- #
class TestNeedsPruning:
    @pytest.fixture()
    def no_inference(self, monkeypatch):
        """Make any attempt to run (fused or plain) inference fail loudly."""

        def refuse(self, *args, **kwargs):  # pragma: no cover - trap
            raise AssertionError("inference must not run for a pruned sweep")

        monkeypatch.setattr(ExecutionPlan, "run_inference", refuse)
        monkeypatch.setattr(ExecutionPlan, "run_inference_many", refuse)

    def test_inference_free_sweep_never_builds_an_engine(
        self, small_dataset, study_result, no_inference
    ):
        matrix = ScenarioMatrix(
            small_dataset.config, ablations=(BASELINE, NO_BUNDLING)
        )
        campaign = StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)
        results = campaign.run(analyses=["fig2"])
        table = results.tabulate("fig2")
        assert results.build_counts["inference"] == 0
        # The pruned sweep still produces the real artifact.
        (_, _, first), _ = table.entries
        assert first.rows == study_result.analysis("fig2").rows

    def test_inference_needing_report_still_fuses(self, small_dataset):
        matrix = ScenarioMatrix(
            small_dataset.config, ablations=(BASELINE, NO_BUNDLING)
        )
        campaign = StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)
        # table3 needs the report, whose stage closure reaches inference:
        # the pruned schedule still fuses both cells into one stream pass.
        results = campaign.run(analyses=["table3"])
        assert results.build_counts["inference"] == 1
        assert results.build_counts["stream_pass"] == 1
        assert len(results.tabulate("table3").entries) == 2

    def test_cli_pruned_sweep_exits_clean_without_inference(self, no_inference):
        lines: list[str] = []
        exit_code = main(
            ["sweep", "--scale", "small", "--seed", "5", "--ablate", "baseline",
             "--ablate", "no-bundling", "--report", "fig2", "--format", "json"],
            out=lines.append,
        )
        assert exit_code == 0
        payload = json.loads("\n".join(lines))
        assert payload["build_counts"].get("inference", 0) == 0
        # Pruned cells carry the axes only -- study numbers would have
        # forced the inference stage.  (``worker`` is always present; it
        # is only populated by distributed sweeps.)
        assert payload["cells"][0] == {
            "cell": "small/seed5/baseline",
            "seed": 5,
            "scale": "small",
            "ablation": "baseline",
            "worker": None,
        }
        assert payload["reports"]["fig2"]["cells"]

    def test_cli_pruned_sweep_keeps_study_numbers_when_inference_ran(self):
        lines: list[str] = []
        exit_code = main(
            ["sweep", "--scale", "small", "--seed", "5", "--report", "table3",
             "--format", "json"],
            out=lines.append,
        )
        assert exit_code == 0
        payload = json.loads("\n".join(lines))
        # table3 forces inference, so the per-cell study numbers are
        # already computed and stay in the payload.
        (cell,) = payload["cells"]
        assert cell["observations"] > 0
        assert cell["providers"] > 0
