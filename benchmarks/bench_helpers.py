"""Shared helpers for the benchmark harness (scenario configs, result files)."""

from __future__ import annotations

import json
import pathlib

from repro.attacks.timeline import AttackTimelineConfig
from repro.topology.generator import TopologyConfig
from repro.workload.config import ScenarioConfig

#: Committed result files, rewritten only by ``pytest --refresh-results``.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Where a plain test run writes them (git-ignored).
LOCAL_RESULTS_DIR = pathlib.Path(__file__).parent / ".results"


def bench_scenario_config(seed: int = 23) -> ScenarioConfig:
    """The benchmark scenario: default topology, three autumn-2016 months."""
    return ScenarioConfig.bench(seed=seed)


def longitudinal_scenario_config(seed: int = 29) -> ScenarioConfig:
    """The Figure 4 scenario: small topology over the full paper window."""
    return ScenarioConfig(
        topology=TopologyConfig.small(seed=seed),
        attacks=AttackTimelineConfig(
            seed=seed ^ 0xA77AC, base_rate_start=1.5, base_rate_end=9.0
        ),
        start_date="2014-12-01",
        end_date="2017-04-01",
        seed=seed,
    )


def write_result(directory: pathlib.Path, name: str, text: str) -> None:
    """Persist one experiment's regenerated rows for EXPERIMENTS.md."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n")


def write_json_result(directory: pathlib.Path, name: str, payload: dict) -> None:
    """Persist one experiment's machine-readable record (``BENCH_<name>.json``).

    The JSON sits next to the human-readable ``<name>.txt`` and seeds the
    perf trajectory: CI and future sessions compare counters (and, loosely,
    throughput) across runs without parsing prose.
    """
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
