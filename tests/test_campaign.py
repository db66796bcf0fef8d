"""Tests for the scenario campaign layer (:mod:`repro.exec.campaign`).

Covers the acceptance properties of the shared-artifact sweep refactor:

* deterministic matrix expansion (scale-major, then seed, then ablation)
  and axis-based cell selection;
* cross-context sharing -- an ablation grid over one scenario simulates
  once and builds the dictionary and usage statistics once (asserted via
  the artifact cache's stage-build counters);
* per-cell parity with independent ``StudyPipeline`` runs;
* content-addressed identities (equal configs share, different seeds or
  project subsets do not).
"""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import StudyPipeline
from repro.exec.campaign import (
    ABLATIONS,
    BASELINE,
    INFERRED_DICTIONARY,
    NO_BUNDLING,
    AblationSpec,
    ScenarioMatrix,
    StudyCampaign,
)
from repro.exec.identity import fingerprint
from repro.exec.plan import ExecutionPlan
from repro.workload.config import ScenarioConfig


@pytest.fixture(scope="module")
def ablation_campaign(small_dataset):
    """A 3-variant ablation sweep sharing the session's small dataset."""
    matrix = ScenarioMatrix(
        small_dataset.config,
        ablations=(BASELINE, NO_BUNDLING, INFERRED_DICTIONARY),
    )
    return StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)


@pytest.fixture(scope="module")
def ablation_results(ablation_campaign):
    return ablation_campaign.run()


# --------------------------------------------------------------------------- #
# Matrix expansion
# --------------------------------------------------------------------------- #
class TestScenarioMatrix:
    def test_cells_are_deterministically_ordered(self):
        matrix = ScenarioMatrix(
            ScenarioConfig.small(seed=23),
            seeds=(23, 24),
            ablations=(BASELINE, NO_BUNDLING),
        )
        labels = [cell.label for cell in matrix.cells()]
        assert labels == [
            "seed23/baseline",
            "seed23/no-bundling",
            "seed24/baseline",
            "seed24/no-bundling",
        ]
        assert [cell.index for cell in matrix.cells()] == [0, 1, 2, 3]
        assert len(matrix) == 4

    def test_scales_axis_draws_from_presets(self):
        matrix = ScenarioMatrix(seeds=(7,), scales=("small",))
        (cell,) = matrix.cells()
        assert cell.scale == "small"
        assert cell.label == "small/seed7/baseline"
        assert cell.config == ScenarioConfig.small(seed=7)

    def test_scales_axis_conflicts_with_explicit_base(self):
        with pytest.raises(ValueError, match="not both"):
            ScenarioMatrix(ScenarioConfig.small(seed=23), scales=("small",))

    def test_seed_axis_reseeds_base(self):
        base = ScenarioConfig.small(seed=23)
        matrix = ScenarioMatrix(base, seeds=(31,))
        (cell,) = matrix.cells()
        assert cell.config.seed == 31
        assert cell.config.topology.seed == 31

    def test_base_seed_cell_keeps_base_config_verbatim(self):
        # A base with independently chosen nested seeds must not be rewritten
        # by the seed-derivation of with_seed() for its own grid row.
        from repro.attacks.timeline import AttackTimelineConfig

        base = ScenarioConfig.small(seed=23)
        custom = ScenarioConfig(
            topology=base.topology,
            attacks=AttackTimelineConfig(seed=7),
            start_date=base.start_date,
            end_date=base.end_date,
            seed=23,
        )
        matrix = ScenarioMatrix(custom, seeds=(23, 31))
        first, second = matrix.cells()
        assert first.config is custom
        assert first.config.attacks.seed == 7
        assert second.config.seed == 31

    def test_ablations_resolve_by_name(self):
        matrix = ScenarioMatrix(ablations=("no-bundling",))
        assert matrix.ablations == (NO_BUNDLING,)
        with pytest.raises(ValueError):
            ScenarioMatrix(ablations=("no-such-knob",))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioMatrix(seeds=())
        with pytest.raises(ValueError):
            ScenarioMatrix(ablations=())
        with pytest.raises(ValueError):
            ScenarioMatrix(scales=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            ScenarioMatrix(seeds=(23, 23))
        with pytest.raises(ValueError, match="duplicate ablation"):
            ScenarioMatrix(ablations=(BASELINE, AblationSpec("baseline")))
        with pytest.raises(ValueError, match="duplicate scales"):
            ScenarioMatrix(scales=("small", "small"))

    def test_registry_has_the_papers_variants(self):
        assert set(ABLATIONS) == {"baseline", "no-bundling", "inferred-dictionary"}
        assert not ABLATIONS["no-bundling"].enable_bundling
        assert ABLATIONS["inferred-dictionary"].use_inferred_dictionary


# --------------------------------------------------------------------------- #
# Shared-artifact sweep
# --------------------------------------------------------------------------- #
class TestSharedArtifacts:
    def test_invariant_stages_built_exactly_once(self, ablation_results):
        counts = ablation_results.build_counts
        assert counts["dataset"] == 1
        assert counts["dictionary"] == 1
        # The first fused pass collects the usage statistics inline and
        # publishes them, so the standalone stage never runs.
        assert counts["usage_stats"] == 0
        assert counts["inferred_dictionary"] == 1
        # Fused scheduling: one multi-engine pass feeds baseline and
        # no-bundling; the inferred-dictionary cell needs a second pass
        # (its dictionary is a function of the full-stream statistics).
        assert counts["inference"] == 2
        assert counts["stream_pass"] == 2
        # baseline and no-bundling share the documented-only effective
        # dictionary; inferred-dictionary builds its own merged one.
        assert counts["effective_dictionary"] == 2

    def test_shared_artifacts_are_the_same_objects(self, ablation_results):
        baseline = ablation_results.get(ablation="baseline")
        no_bundling = ablation_results.get(ablation="no-bundling")
        assert baseline.dictionary is no_bundling.dictionary
        assert baseline.usage_stats is no_bundling.usage_stats

    def test_cells_match_independent_pipelines(
        self, ablation_results, small_dataset, study_result
    ):
        baseline = ablation_results.get(ablation="baseline")
        assert baseline.observations == study_result.observations
        assert baseline.report.providers() == study_result.report.providers()

        for name, knobs in (
            ("no-bundling", {"enable_bundling": False}),
            ("inferred-dictionary", {"use_inferred_dictionary": True}),
        ):
            cell = ablation_results.get(ablation=name)
            alone = StudyPipeline(small_dataset, **knobs).run()
            assert cell.observations == alone.observations
            assert cell.report.providers() == alone.report.providers()
            assert cell.report.users() == alone.report.users()
            assert cell.report.prefixes() == alone.report.prefixes()
            assert len(cell.events) == len(alone.events)

    def test_batched_sweep_tallies_materialised_rows(self, small_dataset):
        # Both fused waves (documented cells, then the inferred-dictionary
        # cell) add their engines' materialised rows to the shared tally.
        matrix = ScenarioMatrix(
            small_dataset.config,
            ablations=(BASELINE, NO_BUNDLING, INFERRED_DICTIONARY),
        )
        results = StudyCampaign(
            matrix,
            plan=ExecutionPlan(batch_size=512),
            dataset_factory=lambda config: small_dataset,
        ).run()
        cells = [
            result.context.get("execution_outcome").engine_stats.rows_materialised
            for result in results
        ]
        assert results.build_counts["inference"] == 2
        assert results.build_counts["rows_materialised"] == sum(cells) > 0

    def test_results_and_work_are_memoised(self, small_dataset):
        campaign = StudyCampaign(
            ScenarioMatrix(small_dataset.config),
            dataset_factory=lambda config: small_dataset,
        )
        results = campaign.results()
        assert campaign.results() is results
        results.get(ablation="baseline").report
        # A later eager run() reuses the same contexts: nothing re-runs.
        assert campaign.run() is results
        assert campaign.cache.build_counts["inference"] == 1

    def test_project_subset_changes_stream_identity(self, small_dataset):
        matrix = ScenarioMatrix(small_dataset.config)
        shared = StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)
        subset = StudyCampaign(
            matrix,
            projects={"ris"},
            dataset_factory=lambda config: small_dataset,
        )
        full_stats = shared.run().get(ablation="baseline").usage_stats
        ris_stats = subset.run().get(ablation="baseline").usage_stats
        assert full_stats.total_announcements > ris_stats.total_announcements


# --------------------------------------------------------------------------- #
# Result selection
# --------------------------------------------------------------------------- #
class TestCampaignResult:
    def test_iteration_and_labels_follow_matrix_order(self, ablation_results):
        assert len(ablation_results) == 3
        assert ablation_results.labels() == (
            "seed23/baseline",
            "seed23/no-bundling",
            "seed23/inferred-dictionary",
        )
        assert list(ablation_results)[0] is ablation_results[0]
        cells = [cell.ablation.name for cell, _ in ablation_results.items()]
        assert cells == ["baseline", "no-bundling", "inferred-dictionary"]

    def test_get_requires_a_unique_match(self, ablation_results):
        with pytest.raises(KeyError):
            ablation_results.get(ablation="baseline", seed=999)
        with pytest.raises(KeyError):
            ablation_results.get(seed=23)  # three cells match
        with pytest.raises(ValueError):
            ablation_results.get(ablation="no-such-knob")

    def test_lazy_results_compute_on_access(self, small_dataset):
        matrix = ScenarioMatrix(small_dataset.config)
        campaign = StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)
        results = campaign.results()
        assert campaign.cache.build_counts["inference"] == 0
        results.get(ablation="baseline").report
        assert campaign.cache.build_counts["inference"] == 1

    def test_lazy_cells_share_fused_usage_stats(self, small_dataset):
        """A lazily-driven cell publishes its fused statistics to siblings."""
        matrix = ScenarioMatrix(
            small_dataset.config, ablations=(BASELINE, NO_BUNDLING)
        )
        campaign = StudyCampaign(matrix, dataset_factory=lambda config: small_dataset)
        results = campaign.results()
        first = results.get(ablation="baseline")
        second = results.get(ablation="no-bundling")
        # The first cell's inference fuses the usage-statistics collection
        # into its stream pass and publishes it under the stage identity...
        first.report
        assert first.context.has("usage_stats")
        assert second.context.shared_has("usage_stats")
        # ...so the sibling neither re-fuses nor runs the stats stage.
        second.report
        assert second.usage_stats is first.usage_stats
        assert campaign.cache.build_counts["usage_stats"] == 0


# --------------------------------------------------------------------------- #
# Cross-cell aggregation
# --------------------------------------------------------------------------- #
class TestTabulateAggregate:
    def test_mean_collapses_groups_positionally(self, ablation_results):
        import statistics

        per_cell = ablation_results.tabulate("table3", by="seed")
        # All three ablation cells share seed 23, so by="seed" forms one
        # group of three and the aggregate runs over the ablation axis.
        aggregated = ablation_results.tabulate("table3", by="seed", aggregate="mean")
        assert aggregated.aggregate == "mean"
        ((cell, label, result),) = aggregated.entries
        assert label == "seed23"
        assert "[mean over 3 cell(s)]" in result.title
        for index, row in enumerate(result.rows):
            for key, value in row.items():
                values = [r.row_dicts()[index][key] for r in per_cell.results()]
                if all(isinstance(v, (int, float)) for v in values):
                    assert value == pytest.approx(statistics.fmean(values)), key
                elif len(set(map(str, values))) == 1:
                    assert value == values[0]
                else:
                    assert value is None

    def test_stddev_is_zero_for_singleton_groups(self, ablation_results):
        aggregated = ablation_results.tabulate(
            "table3", by="ablation", aggregate="stddev"
        )
        assert len(aggregated.entries) == 3  # one group per ablation
        for _, _, result in aggregated.entries:
            for row in result.rows:
                numeric = [
                    v for v in row.values() if isinstance(v, (int, float))
                ]
                assert numeric and all(v == 0.0 for v in numeric)

    def test_aggregate_appears_in_to_dict_and_render(self, ablation_results):
        table = ablation_results.tabulate("table3", by="seed", aggregate="mean")
        payload = table.to_dict()
        assert payload["aggregate"] == "mean"
        assert len(payload["cells"]) == 1
        assert "=== seed23 ===" in table.render()
        plain = ablation_results.tabulate("table3")
        assert plain.to_dict()["aggregate"] is None

    def test_unknown_aggregate_rejected(self, ablation_results):
        with pytest.raises(ValueError, match="unknown aggregate"):
            ablation_results.tabulate("table3", aggregate="median")

    def test_mismatched_row_counts_are_refused(self):
        from repro.analysis.registry import AnalysisResult
        from repro.exec.campaign import _aggregate_results

        short = AnalysisResult("t", "T", ("a",), ({"a": 1},))
        long = AnalysisResult("t", "T", ("a",), ({"a": 1}, {"a": 2}))
        with pytest.raises(ValueError, match="differing row counts"):
            _aggregate_results("t", "T", [short, long], "mean")

    def test_misaligned_identifying_columns_are_refused(self):
        # Equal row counts but value-sorted rows in a different order: a
        # positional mean would average unrelated rows -- refused, because
        # the non-numeric identifying column disagrees at that position.
        from repro.analysis.registry import AnalysisResult
        from repro.exec.campaign import _aggregate_results

        one = AnalysisResult(
            "t", "T", ("country", "n"),
            ({"country": "DE", "n": 5}, {"country": "US", "n": 1}),
        )
        other = AnalysisResult(
            "t", "T", ("country", "n"),
            ({"country": "US", "n": 9}, {"country": "DE", "n": 2}),
        )
        with pytest.raises(ValueError, match="do not align"):
            _aggregate_results("t", "T", [one, other], "mean")
        # Disagreeing *meta* scalars carry no alignment role: they degrade
        # to None instead of refusing the whole aggregation.
        with_meta = [
            AnalysisResult("t", "T", ("n",), ({"n": 1},), meta={"note": "a"}),
            AnalysisResult("t", "T", ("n",), ({"n": 3},), meta={"note": "b"}),
        ]
        aggregated = _aggregate_results("t", "T", with_meta, "mean")
        assert aggregated.rows[0]["n"] == 2.0
        assert aggregated.meta["note"] is None


# --------------------------------------------------------------------------- #
# Content-addressed identities
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_equal_configs_share_a_fingerprint(self):
        assert fingerprint(ScenarioConfig.small(seed=5)) == fingerprint(
            ScenarioConfig.small(seed=5)
        )
        assert fingerprint(ScenarioConfig.small(seed=5)) != fingerprint(
            ScenarioConfig.small(seed=6)
        )

    def test_fingerprints_are_hashable(self):
        {fingerprint(ScenarioConfig.small()): None}
        {fingerprint({"b": [1, 2], "a": {3, 4}}): None}

    def test_dict_order_is_canonicalised(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
