"""Tests for the unified analysis registry (:mod:`repro.analysis.registry`).

Covers enumeration, parity of every registered artifact with the golden
``repro report`` snapshot (``tests/golden/report.json``, recorded before the
analyses became the only entry point to their artifacts), JSON round-trips,
needs-driven laziness (an inference-free report never builds the inference
stage), and cross-cell tabulation through a campaign.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis import registry
from repro.analysis.pipeline import StudyPipeline
from repro.cli import main
from repro.exec.campaign import ScenarioMatrix, StudyCampaign
from repro.exec.plan import ExecutionPlan
from repro.workload.config import ScenarioConfig

EXPECTED_NAMES = (
    "fig2",
    "fig2_surface",
    "fig4",
    "fig4_growth",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig9_traffic",
    "table1",
    "table2",
    "table3",
    "table3_summary",
    "table4",
)

GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "report.json"

#: Analyses whose declared needs never pull the inference stage.
INFERENCE_FREE = ("table1", "table2", "fig2", "fig2_surface", "fig9_traffic")


class TestRegistry:
    def test_enumeration(self):
        assert registry.names() == EXPECTED_NAMES
        assert len(registry.all_analyses()) == 15
        assert [spec.name for spec in registry.all_analyses()] == list(EXPECTED_NAMES)

    def test_kinds(self):
        kinds = {spec.name: spec.kind for spec in registry.all_analyses()}
        assert kinds["fig2"] == "figure"
        assert kinds["table1"] == "table"
        assert sum(1 for kind in kinds.values() if kind == "table") == 5

    def test_get_unknown_names_known_registry(self):
        with pytest.raises(KeyError, match="known:.*fig2.*table4"):
            registry.get("fig1")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.analysis("fig2", title="duplicate")(lambda result: None)

    def test_declared_needs_are_real_artifacts(self, study_result):
        known = set(study_result.context.artifact_names())
        for spec in registry.all_analyses():
            assert set(spec.needs) <= known, spec.name

    def test_inference_free_needs_avoid_the_inference_stage(self, study_result):
        context = study_result.context
        for name in INFERENCE_FREE:
            stages = context.stages_for(registry.get(name).needs)
            assert "inference" not in stages, name
        assert "inference" in context.stages_for(registry.get("table4").needs)


class TestParity:
    """Each registered artifact, computed through the library over the
    session's eager study result, matches the digest that the lazy
    ``repro report --scale small`` run recorded in ``tests/golden/report.json``
    (row count, full ``meta`` and SHA-256 of the ``to_dict()`` payload)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_REPORT.read_text())

    @staticmethod
    def check(study_result, golden, *names):
        for name in names:
            payload = json.loads(json.dumps(study_result.analysis(name).to_dict()))
            digest = {
                "rows": len(payload["rows"]),
                "meta": payload["meta"],
                "sha256": hashlib.sha256(
                    json.dumps(payload, sort_keys=True).encode()
                ).hexdigest(),
            }
            assert digest == golden[name], name

    def test_table1(self, study_result, golden):
        self.check(study_result, golden, "table1")

    def test_table2(self, study_result, golden):
        self.check(study_result, golden, "table2")

    def test_table3(self, study_result, golden):
        self.check(study_result, golden, "table3")

    def test_table3_summary(self, study_result, golden):
        self.check(study_result, golden, "table3_summary")

    def test_table4(self, study_result, golden):
        self.check(study_result, golden, "table4")

    def test_fig2(self, study_result, golden):
        self.check(study_result, golden, "fig2", "fig2_surface")

    def test_fig4(self, study_result, golden):
        self.check(study_result, golden, "fig4", "fig4_growth")

    def test_fig5(self, study_result, golden):
        self.check(study_result, golden, "fig5")

    def test_fig6(self, study_result, golden):
        self.check(study_result, golden, "fig6")

    def test_fig7(self, study_result, golden):
        self.check(study_result, golden, "fig7")

    def test_fig8(self, study_result, golden):
        self.check(study_result, golden, "fig8")

    def test_fig9(self, study_result, golden):
        self.check(study_result, golden, "fig9")

    def test_fig9_traffic(self, study_result, golden):
        self.check(study_result, golden, "fig9_traffic")

    def test_every_result_json_serialisable(self, study_result):
        for name, res in study_result.analyses().items():
            payload = json.dumps(res.to_dict())
            decoded = json.loads(payload)
            assert decoded["name"] == name
            assert decoded["headers"], name
            assert isinstance(decoded["rows"], list), name


class TestLaziness:
    def test_inference_free_analyses_never_build_inference(self, small_dataset):
        result = StudyPipeline(small_dataset).result()
        for name in INFERENCE_FREE:
            result.analysis(name)
        assert result.context.build_counts["inference"] == 0
        assert not result.context.has("observations")
        # Only the cheap front of the pipeline ran, each stage exactly once.
        assert result.context.build_counts["dictionary"] == 1
        assert result.context.build_counts["usage_stats"] == 1

    def test_cli_report_never_runs_inference_for_fig2(self, monkeypatch):
        def refuse(*args, **kwargs):  # pragma: no cover - would fail the test
            raise AssertionError("repro report fig2 must not run inference")

        monkeypatch.setattr(ExecutionPlan, "run_inference", refuse)
        lines: list[str] = []
        exit_code = main(
            ["report", "fig2", "table1", "--scale", "small", "--seed", "5"],
            out=lines.append,
        )
        assert exit_code == 0
        assert any("Figure 2" in line for line in lines)


class TestTabulate:
    @pytest.fixture(scope="class")
    def campaign_results(self):
        matrix = ScenarioMatrix(ScenarioConfig.small(seed=31), seeds=(31, 32))
        return StudyCampaign(matrix).results()

    def test_tabulate_a_table_by_seed(self, campaign_results):
        table = campaign_results.tabulate("table2", by="seed")
        assert table.labels() == ("seed31", "seed32")
        assert [res.name for res in table.results()] == ["table2", "table2"]
        assert all(res.rows for res in table.results())
        rendered = table.render()
        assert "seed31" in rendered and "seed32" in rendered
        assert rendered.count("Table 2") == 2

    def test_tabulate_a_figure_by_cell(self, campaign_results):
        figure = campaign_results.tabulate("fig2", by="cell")
        assert figure.labels() == ("seed31/baseline", "seed32/baseline")
        payload = json.loads(json.dumps(figure.to_dict()))
        assert payload["analysis"] == "fig2"
        assert [cell["seed"] for cell in payload["cells"]] == [31, 32]

    def test_tabulate_stays_lazy_and_shares_the_cache(self, campaign_results):
        # Both tabulations above needed dictionaries + usage stats only:
        # one build per seed, and never an inference pass.
        counts = campaign_results.build_counts
        assert counts["dictionary"] == 2
        assert counts["inference"] == 0

    def test_tabulate_rejects_unknown_axis_and_analysis(self, campaign_results):
        with pytest.raises(ValueError, match="unknown axis"):
            campaign_results.tabulate("table2", by="epoch")
        with pytest.raises(KeyError, match="unknown analysis"):
            campaign_results.tabulate("fig1")
