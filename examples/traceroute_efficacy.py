#!/usr/bin/env python3
"""Active measurement of blackholing efficacy (Section 10, Figures 9(a)/9(b)).

For a sample of blackholing events the example launches simulated
traceroutes from Atlas-style probes (downstream cone, upstream cone, peers,
and inside the blackholing user) towards the blackholed host and its /31
neighbour, during and after the blackholing, and reports how much earlier
the traced paths terminate while the blackholing is active.

Run with::

    python examples/traceroute_efficacy.py
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.pipeline import StudyPipeline
from repro.workload import ScenarioConfig, ScenarioSimulator


def _histogram(values: list[int], title: str) -> None:
    counts = Counter(values)
    total = len(values) or 1
    print(f"\n{title}")
    for delta in sorted(counts):
        bar = "#" * int(50 * counts[delta] / total)
        print(f"  {delta:>4}: {counts[delta]:>5} ({counts[delta] / total:5.1%}) {bar}")


def main() -> None:
    print("Simulating scenario ...")
    dataset = ScenarioSimulator(ScenarioConfig.small(seed=23)).generate()
    # Lazy: the traceroute campaign runs over the scenario's ground-truth
    # requests, so the fig9 analysis never needs the inference pass.
    result = StudyPipeline(dataset).result()

    print("Running the during/after traceroute campaign ...")
    fig9 = result.analysis("fig9")
    deltas: dict[str, list[int]] = {}
    for row in fig9.rows:
        deltas.setdefault(row["metric"], []).append(row["delta"])
    summary = fig9.meta["summary"]

    _histogram(
        deltas["ip_after_vs_during"],
        "IP-level path length difference (after minus during blackholing):",
    )
    _histogram(
        deltas["as_after_vs_during"],
        "AS-level path length difference (after minus during blackholing):",
    )

    print("\nEfficacy summary (host-route blackholings):")
    print(f"  usable measurements:                    {summary.measurements}")
    print(f"  mean IP-hop shortening during blackholing: {summary.mean_ip_hop_shortening:.2f}")
    print(f"  mean AS-hop shortening during blackholing: {summary.mean_as_hop_shortening:.2f}")
    print(f"  paths terminating earlier during blackholing: {summary.shortened_path_fraction:.1%}")
    print(
        "  traffic dropped at the destination AS or its direct upstream: "
        f"{summary.dropped_at_destination_or_upstream_fraction:.1%}"
    )
    print(
        "  mean IP-hop delta for /24-or-shorter blackholed prefixes "
        f"(should be ~0): {summary.less_specific_mean_ip_delta:.2f}"
    )


if __name__ == "__main__":
    main()
