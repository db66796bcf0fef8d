"""Benchmark: serial sweep vs. a distributed worker fleet over one store.

Runs the paper's 3-variant ablation grid (baseline / no-bundling /
inferred-dictionary) over the bench scenario twice:

* serial -- one in-process :meth:`StudyCampaign.run` (the PR 4 fused
  scheduler: two stream passes for the mixed grid);
* distributed -- :meth:`StudyCampaign.run_distributed` forking a 2-worker
  fleet against one :class:`~repro.exec.store.DiskStore`: each lease of
  the queue claims a whole stream group (here the grid is one group, since
  every cell shares the scenario), its holder runs the group as one fused
  pass and builds its shared stages, and every worker records a
  :class:`~repro.exec.distrib.WorkerLedger`.

The proof is the counters, not wall time (one run per variant on a small
runner has far too much variance to assert on): the aggregated fleet
ledger must show each grid-invariant stage built exactly once across all
workers -- dictionary x1, inferred dictionary x1, effective dictionary x2
(two identities), usage statistics at most once -- and no more stream
passes or dataset builds than the serial run, with per-cell observation
digests bit-identical to the serial run and every cell attributed to the
worker that produced it.  Wall times are recorded for the results file
only.
"""

from __future__ import annotations

import time

from repro.exec.campaign import (
    BASELINE,
    INFERRED_DICTIONARY,
    NO_BUNDLING,
    ScenarioMatrix,
    StudyCampaign,
)
from repro.exec.distrib import CellQueue, observations_digest
from repro.exec.store import DiskStore

from bench_helpers import bench_scenario_config, write_json_result, write_result

ABLATIONS = (BASELINE, NO_BUNDLING, INFERRED_DICTIONARY)
WORKERS = 2


def _matrix() -> ScenarioMatrix:
    return ScenarioMatrix(bench_scenario_config(), ablations=ABLATIONS)


def test_bench_distributed_sweep(bench_dataset, results_dir, tmp_path):
    serial_campaign = StudyCampaign(
        _matrix(), dataset_factory=lambda config: bench_dataset
    )
    # The fleet digests each cell inside its own timing, so the serial
    # clock covers the digests too.
    start = time.perf_counter()
    serial = serial_campaign.run()
    serial_digests = {
        cell.label: observations_digest(result.observations)
        for cell, result in serial.items()
    }
    serial_seconds = time.perf_counter() - start
    serial_counts = serial.build_counts
    assert serial_counts["stream_pass"] == 2

    distributed_campaign = StudyCampaign(
        _matrix(),
        dataset_factory=lambda config: bench_dataset,
        store=DiskStore(tmp_path / "store"),
    )
    start = time.perf_counter()
    outcome = distributed_campaign.run_distributed(workers=WORKERS)
    distributed_seconds = time.perf_counter() - start

    # Every worker exited cleanly and the grid drained without poisonings.
    assert all(code == 0 for _, code in outcome.worker_exits), outcome.worker_exits
    assert outcome.complete, outcome.status.counts

    # The exactly-once proof: aggregated across the fleet's ledgers, zero
    # duplicate grid-invariant builds (only a group's holder builds them).
    counts = outcome.build_counts
    assert counts["dictionary"] == 1, counts
    assert counts["inferred_dictionary"] == 1, counts
    assert counts["effective_dictionary"] == 2, counts
    assert counts.get("usage_stats", 0) <= 1, counts
    # A claim is one fused pass over a whole stream group, so the fleet
    # streams and simulates no more than the serial run.
    assert counts["stream_pass"] <= serial_counts["stream_pass"], counts
    assert counts["dataset"] <= serial_counts["dataset"], counts

    # Bit-identical per-cell artifacts, each attributed to its producer.
    done = outcome.done
    assert len(done) == len(_matrix())
    workers_used = set()
    for record in done.values():
        assert record["observations_digest"] == serial_digests[record["label"]], (
            record["label"]
        )
        workers_used.add(record["worker"])
    assert workers_used  # attribution present (one worker may win every cell)

    queue_cells = CellQueue(tmp_path / "store", _matrix().cells()).status().counts
    fleet_passes = counts["stream_pass"]
    text = (
        f"Distributed sweep: 3-cell paper ablation grid, {WORKERS}-worker fleet "
        "over one DiskStore queue\n"
        f"  serial run:       {serial_seconds:8.2f} s "
        f"({serial_counts['stream_pass']} fused stream passes)\n"
        f"  distributed run:  {distributed_seconds:8.2f} s "
        f"({fleet_passes} fleet-wide stream passes, {len(workers_used)} "
        "worker(s) completed cells)\n"
        "  (wall times informational -- 1-CPU runner; the counters are the "
        "assertion)\n"
        f"  queue end state:   {queue_cells}\n"
        f"  fleet stage builds: {dict(sorted(counts.items()))}\n"
        f"  serial stage builds: {dict(sorted(serial_counts.items()))}\n"
        "\nEvery grid-invariant stage built exactly once fleet-wide "
        "(dictionary x1, inferred x1, effective x2) by the holder of the "
        "stream group, no more stream passes or dataset builds than the "
        "serial run, and per-cell observation digests matched the serial "
        "run bit-for-bit."
    )
    write_result(results_dir, "distributed_sweep", text)
    write_json_result(
        results_dir,
        "distributed_sweep",
        {
            "workers": WORKERS,
            "cells": len(done),
            "serial_seconds": round(serial_seconds, 3),
            "distributed_seconds": round(distributed_seconds, 3),
            "fleet_build_counts": dict(sorted(counts.items())),
            "serial_build_counts": dict(sorted(serial_counts.items())),
            "queue_counts": queue_cells,
            "workers_completing_cells": len(workers_used),
        },
    )
