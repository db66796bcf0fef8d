"""Campaign benchmark: a 3-variant ablation sweep vs. independent pipelines.

Runs the paper's three ablation variants (baseline / no-bundling /
inferred-dictionary) over the bench scenario twice:

* independently -- three full ``StudyPipeline(...).run()`` calls, each
  paying for its own dictionary build and usage statistics: baseline and
  no-bundling collect them inside their single inference pass, while
  inferred-dictionary needs a statistics pass before its inference pass;
* as one :class:`~repro.exec.campaign.StudyCampaign` sweep -- the scenario
  simulation, documented dictionary and usage statistics are computed once,
  shared through the cross-context artifact cache, and the fused scheduler
  drives the grid in two stream passes (one multi-engine pass for the
  documented-dictionary cells, one for the inferred-dictionary cell).

Asserts that the shared stages really ran exactly once and the grid took
exactly two stream iterations (stage-build / stream-pass counters), that
every cell's report is identical to its independent run, and records the
sweep-vs-independent wall times in ``benchmarks/results/``.
"""

import time

from repro.analysis.pipeline import StudyPipeline
from repro.exec.campaign import (
    BASELINE,
    INFERRED_DICTIONARY,
    NO_BUNDLING,
    ScenarioMatrix,
    StudyCampaign,
)

from bench_helpers import bench_scenario_config, write_result

VARIANTS = (
    ("baseline", {}),
    ("no-bundling", {"enable_bundling": False}),
    ("inferred-dictionary", {"use_inferred_dictionary": True}),
)


def test_bench_campaign_sweep(benchmark, bench_dataset, results_dir):
    start = time.perf_counter()
    independent = {
        name: StudyPipeline(bench_dataset, **knobs).run()
        for name, knobs in VARIANTS
    }
    independent_seconds = time.perf_counter() - start

    factory_calls = []

    def factory(config):
        factory_calls.append(config)
        return bench_dataset

    matrix = ScenarioMatrix(
        bench_scenario_config(),
        ablations=(BASELINE, NO_BUNDLING, INFERRED_DICTIONARY),
    )
    campaign = StudyCampaign(matrix, dataset_factory=factory)
    start = time.perf_counter()
    swept = benchmark.pedantic(campaign.run, rounds=1, iterations=1)
    sweep_seconds = time.perf_counter() - start

    # The invariant artifacts were computed exactly once across the grid,
    # and the fused scheduler collapsed the three per-cell passes into two
    # stream iterations: one multi-engine pass feeding baseline and
    # no-bundling (collecting the usage statistics inline), plus one for
    # the inferred-dictionary cell, whose engine dictionary is a function
    # of the full-stream statistics and so cannot join the first pass.
    counts = swept.build_counts
    assert len(factory_calls) == 1, "corpus/scenario simulated more than once"
    assert counts["dictionary"] == 1
    assert counts["usage_stats"] == 0
    assert counts["inferred_dictionary"] == 1
    assert counts["inference"] == 2
    assert counts["stream_pass"] == 2
    baseline = swept.get(ablation="baseline")
    assert swept.get(ablation="no-bundling").usage_stats is baseline.usage_stats

    # Every cell matches its independent pipeline run exactly.
    for name, _ in VARIANTS:
        cell = swept.get(ablation=name)
        alone = independent[name]
        assert cell.observations == alone.observations, name
        assert cell.report.providers() == alone.report.providers(), name
        assert cell.report.users() == alone.report.users(), name
        assert cell.report.prefixes() == alone.report.prefixes(), name
        assert len(cell.events) == len(alone.events), name

    speedup = independent_seconds / sweep_seconds if sweep_seconds else float("inf")
    text = (
        "Campaign: 3-variant ablation sweep (baseline / no-bundling / "
        "inferred-dictionary)\n"
        f"  independent pipelines: {independent_seconds:8.2f} s "
        f"(3x dictionary + inference, 4 stream passes: stats inline for "
        "baseline and no-bundling, a separate stats pass for inferred-dictionary)\n"
        f"  fused campaign sweep:  {sweep_seconds:8.2f} s "
        f"(shared dictionary; 2 stream passes: one multi-engine pass for "
        "baseline+no-bundling with stats inline, one for inferred-dictionary)\n"
        f"  sweep speedup:         {speedup:8.2f}x\n"
        f"  stage builds: {dict(counts)}\n"
        "\nPer-cell reports are identical to the independent runs; the saving is "
        "the cross-cell-invariant work plus the fused stream passes."
    )
    write_result(results_dir, "campaign_sweep", text)
    print("\n" + text)
