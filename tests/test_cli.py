"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workload.config import ScenarioConfig


class TestScaleMapping:
    """Scale presets live in exactly one place: ScenarioConfig.for_scale."""

    def test_known_scales(self):
        small = ScenarioConfig.for_scale("small", seed=1)
        assert isinstance(small, ScenarioConfig)
        assert small.topology.seed == 1
        bench = ScenarioConfig.for_scale("bench", seed=2)
        assert bench.duration_days > small.duration_days
        longitudinal = ScenarioConfig.for_scale("longitudinal", seed=3)
        assert longitudinal.duration_days > bench.duration_days

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.for_scale("galactic", seed=1)

    def test_cli_no_longer_duplicates_presets(self):
        import repro.cli as cli

        assert not hasattr(cli, "build_scenario_config")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.scale == "small"
        assert args.report == "summary"
        assert args.seed == 23
        assert args.workers == 1

    def test_workers(self):
        args = build_parser().parse_args(["study", "--workers", "4"])
        assert args.workers == 4

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # A real version string followed the program name.
        assert out.split()[1][0].isdigit()

    def test_sweep_defaults_and_axes(self):
        args = build_parser().parse_args(["sweep"])
        assert args.scale is None and args.ablate is None
        assert args.seeds == 1 and args.seed == 23
        args = build_parser().parse_args(
            ["sweep", "--scale", "small", "--scale", "bench",
             "--seeds", "3", "--ablate", "baseline", "--ablate", "no-bundling"]
        )
        assert args.scale == ["small", "bench"]
        assert args.ablate == ["baseline", "no-bundling"]
        assert args.seeds == 3

    def test_sweep_rejects_unknown_ablation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--ablate", "no-such-knob"])

    def test_sweep_store_and_axis_flags(self):
        args = build_parser().parse_args(["sweep"])
        assert args.store is None and args.resume is False
        assert args.ablate_timeout is None and args.projects is None
        assert args.by == "cell" and args.aggregate is None
        args = build_parser().parse_args(
            ["sweep", "--store", "runs", "--resume", "--ablate-timeout", "3600",
             "--ablate-timeout", "60", "--projects", "ris", "--projects", "pch",
             "--by", "ablation", "--aggregate", "mean"]
        )
        assert args.store == "runs" and args.resume is True
        assert args.ablate_timeout == [3600.0, 60.0]
        assert args.projects == ["ris", "pch"]
        assert args.by == "ablation" and args.aggregate == "mean"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--projects", "no-such-project"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--aggregate", "median"])

    def test_report_store_and_output_flags(self):
        args = build_parser().parse_args(["report", "fig2"])
        assert args.store is None and args.output is None
        args = build_parser().parse_args(
            ["report", "fig2", "--store", "runs", "--output", "artifacts"]
        )
        assert args.store == "runs" and args.output == "artifacts"

    def test_report_defaults(self):
        args = build_parser().parse_args(["report", "fig2", "table1"])
        assert args.names == ["fig2", "table1"]
        assert args.list is False
        assert args.format == "text"
        args = build_parser().parse_args(["report", "--list"])
        assert args.names == [] and args.list is True

    def test_format_flags(self):
        assert build_parser().parse_args(["study", "--format", "json"]).format == "json"
        assert build_parser().parse_args(["sweep", "--format", "json"]).format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--format", "yaml"])


class TestCommands:
    def test_simulate_prints_statistics(self):
        lines: list[str] = []
        exit_code = main(["simulate", "--scale", "small", "--seed", "5"], out=lines.append)
        assert exit_code == 0
        text = "\n".join(lines)
        assert "blackholing requests" in text
        assert "ASes:" in text

    def test_study_summary_and_tables(self):
        lines: list[str] = []
        exit_code = main(
            ["study", "--scale", "small", "--seed", "5", "--report", "all"],
            out=lines.append,
        )
        assert exit_code == 0
        text = "\n".join(lines)
        assert "Study summary" in text
        assert "blackholed prefixes" in text
        assert "Table 1" in text
        assert "Table 4" in text

    def test_study_sharded_matches_serial_summary(self):
        serial: list[str] = []
        sharded: list[str] = []
        assert main(["study", "--scale", "small", "--seed", "5"], out=serial.append) == 0
        assert (
            main(
                ["study", "--scale", "small", "--seed", "5", "--workers", "2"],
                out=sharded.append,
            )
            == 0
        )
        # Identical study numbers, shard count only changes the status line.
        serial_summary = [line for line in serial if line.startswith("  ")]
        sharded_summary = [line for line in sharded if line.startswith("  ")]
        assert serial_summary == sharded_summary
        assert any("2 shards" in line for line in sharded)

    def test_sweep_runs_a_shared_campaign(self):
        lines: list[str] = []
        exit_code = main(
            ["sweep", "--scale", "small", "--seeds", "2", "--ablate", "baseline",
             "--ablate", "no-bundling", "--seed", "5"],
            out=lines.append,
        )
        assert exit_code == 0
        text = "\n".join(lines)
        assert "Sweeping 4 cells" in text
        assert "small/seed5/baseline" in text
        assert "small/seed6/no-bundling" in text
        # Two seeds mean two simulations/dictionaries and two stream
        # identities; each seed's two cells fuse into ONE multi-engine
        # stream pass, with the usage statistics collected inline, so the
        # standalone stats stage never runs.
        assert "dataset        2 build(s) for 4 cells" in text
        assert "dictionary     2 build(s) for 4 cells" in text
        assert "usage_stats    0 build(s) for 4 cells" in text
        assert "inference      2 build(s) for 4 cells" in text
        assert "stream_pass    2 build(s) for 4 cells" in text

    def test_study_json_output(self):
        lines: list[str] = []
        exit_code = main(
            ["study", "--scale", "small", "--seed", "5", "--format", "json"],
            out=lines.append,
        )
        assert exit_code == 0
        # Pure JSON: no progress lines pollute the payload.
        payload = json.loads("\n".join(lines))
        assert payload["command"] == "study"
        assert set(payload["analyses"]) == {"table3_summary"}
        rows = payload["analyses"]["table3_summary"]["rows"]
        assert rows and rows[0]["blackholed_prefixes"] > 0

    def test_report_list_enumerates_registry(self):
        from repro.analysis import registry

        lines: list[str] = []
        assert main(["report", "--list"], out=lines.append) == 0
        text = "\n".join(lines)
        for name in registry.names():
            assert name in text
        assert "Table 1" in text and "Figure 9" in text

    def test_report_list_json_is_pure_json(self):
        lines: list[str] = []
        assert main(["report", "--list", "--format", "json"], out=lines.append) == 0
        payload = json.loads("\n".join(lines))
        names = [spec["name"] for spec in payload["analyses"]]
        assert "fig2" in names and "table4" in names
        assert all(spec["title"] for spec in payload["analyses"])

    def test_report_text_and_json(self):
        lines: list[str] = []
        exit_code = main(
            ["report", "fig2", "table1", "--scale", "small", "--seed", "5"],
            out=lines.append,
        )
        assert exit_code == 0
        text = "\n".join(lines)
        assert "Figure 2" in text and "Table 1" in text

        lines = []
        exit_code = main(
            ["report", "table1", "--scale", "small", "--seed", "5",
             "--format", "json"],
            out=lines.append,
        )
        assert exit_code == 0
        payload = json.loads("\n".join(lines))
        assert payload["analyses"]["table1"]["rows"]

    def test_report_rejects_unknown_name_and_empty_selection(self):
        lines: list[str] = []
        assert main(["report", "no-such-figure"], out=lines.append) == 2
        assert main(["report"], out=lines.append) == 2
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 2
        assert "unknown analysis" in errors[0]

    def test_sweep_report_tabulates_across_cells(self):
        lines: list[str] = []
        exit_code = main(
            ["sweep", "--scale", "small", "--seeds", "2", "--seed", "5",
             "--report", "table2"],
            out=lines.append,
        )
        assert exit_code == 0
        text = "\n".join(lines)
        assert "=== small/seed5/baseline ===" in text
        assert "=== small/seed6/baseline ===" in text
        assert text.count("Table 2") == 2

    def test_sweep_json_output(self):
        lines: list[str] = []
        exit_code = main(
            ["sweep", "--scale", "small", "--seed", "5", "--format", "json",
             "--report", "fig2"],
            out=lines.append,
        )
        assert exit_code == 0
        payload = json.loads("\n".join(lines))
        assert payload["cells"][0]["cell"] == "small/seed5/baseline"
        assert payload["build_counts"]["dataset"] == 1
        cells = payload["reports"]["fig2"]["cells"]
        assert len(cells) == 1 and cells[0]["result"]["name"] == "fig2"

    def test_sweep_rejects_unknown_report(self):
        lines: list[str] = []
        assert main(["sweep", "--report", "no-such"], out=lines.append) == 2
        assert any("unknown analysis" in line for line in lines)

    def test_sweep_rejects_bad_layout(self):
        lines: list[str] = []
        assert main(["sweep", "--workers", "0"], out=lines.append) == 2
        assert main(["sweep", "--seeds", "0"], out=lines.append) == 2
        assert (
            main(
                ["sweep", "--ablate", "baseline", "--ablate", "baseline"],
                out=lines.append,
            )
            == 2
        )
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 3
        assert "duplicate ablation" in errors[-1]

    def test_sweep_resume_requires_store_and_positive_timeouts(self):
        lines: list[str] = []
        assert main(["sweep", "--resume"], out=lines.append) == 2
        assert main(["sweep", "--ablate-timeout", "-5"], out=lines.append) == 2
        # --by/--aggregate shape tabulated reports; without --report they
        # would be silently ignored, so they are refused instead.
        assert main(["sweep", "--aggregate", "mean"], out=lines.append) == 2
        assert main(["sweep", "--by", "seed"], out=lines.append) == 2
        errors = [line for line in lines if line.startswith("error:")]
        assert "--resume requires --store" in errors[0]
        assert "--ablate-timeout" in errors[1]
        assert "--report" in errors[2] and "--report" in errors[3]

    def test_sweep_aggregate_mismatch_reports_cli_error(self, monkeypatch):
        # An analysis whose row sets differ across the grouped cells (e.g.
        # fig7 per-event rows) raises ValueError from tabulate; the CLI
        # must surface it as `error: ...` + exit 2, never a traceback.
        from repro.exec.campaign import CampaignResult

        def refuse(self, name, **kwargs):
            raise ValueError("cannot aggregate 'fig7': grouped cells ...")

        monkeypatch.setattr(CampaignResult, "tabulate", refuse)
        lines: list[str] = []
        exit_code = main(
            ["sweep", "--scale", "small", "--seed", "5", "--report", "fig2",
             "--by", "seed", "--aggregate", "mean"],
            out=lines.append,
        )
        assert exit_code == 2
        assert any(line.startswith("error: cannot aggregate") for line in lines)

    def test_sweep_store_resume_round_trip(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first: list[str] = []
        args = ["sweep", "--scale", "small", "--seed", "5",
                "--store", store_dir, "--format", "json"]
        assert main(args, out=first.append) == 0
        cold = json.loads("\n".join(first))
        assert cold["store"] == {
            "path": store_dir, "resume": False,
            "entries": cold["store"]["entries"],
        }
        assert cold["store"]["entries"] > 0
        assert cold["build_counts"]["dictionary"] == 1
        # Same sweep, fresh process in spirit: --resume loads every shared
        # stage from disk and rebuilds none of them.
        second: list[str] = []
        assert main(args + ["--resume"], out=second.append) == 0
        warm = json.loads("\n".join(second))
        assert warm["store"]["resume"] is True
        assert warm["build_counts"].get("dictionary", 0) == 0
        assert warm["build_counts"].get("usage_stats", 0) == 0
        # Identical per-cell study numbers: the resume is bit-faithful.
        assert warm["cells"] == cold["cells"]

    def test_sweep_timeout_projects_and_aggregate(self):
        lines: list[str] = []
        exit_code = main(
            ["sweep", "--scale", "small", "--seed", "5", "--seeds", "2",
             "--ablate-timeout", "3600", "--projects", "ris",
             "--report", "table3", "--by", "ablation", "--aggregate", "mean",
             "--format", "json"],
            out=lines.append,
        )
        assert exit_code == 0
        payload = json.loads("\n".join(lines))
        cells = [cell["cell"] for cell in payload["cells"]]
        assert cells == ["small/seed5/timeout-3600s", "small/seed6/timeout-3600s"]
        table = payload["reports"]["table3"]
        assert table["aggregate"] == "mean" and table["by"] == "ablation"
        (group,) = table["cells"]  # both seeds collapse into one group
        assert group["group"] == "timeout-3600s"
        rows = group["result"]["rows"]
        # --projects ris filtered the streams: only the RIS per-source row
        # (plus the ALL summary row) remains.
        assert {row["source"] for row in rows} == {"ris", "ALL"}

    def test_report_output_writes_analysis_json(self, tmp_path):
        from repro.exec.store import load_artifact

        out_dir = tmp_path / "artifacts"
        lines: list[str] = []
        exit_code = main(
            ["report", "table1", "--scale", "small", "--seed", "5",
             "--output", str(out_dir)],
            out=lines.append,
        )
        assert exit_code == 0
        payload = json.loads((out_dir / "table1.json").read_bytes())
        assert payload["name"] == "table1" and payload["rows"]
        # The file is the analysis wire format: it reloads and re-renders.
        loaded = load_artifact("analysis", (out_dir / "table1.json").read_bytes())
        assert loaded.render().splitlines()[0].startswith("Table 1")
        assert any(str(out_dir / "table1.json") in line for line in lines)
