"""Benchmark: Figure 8 -- blackholing event durations (ungrouped vs grouped)."""

from repro.analysis import fig8, registry

from bench_helpers import write_result


def test_bench_fig8(benchmark, bench_result, results_dir):
    res = benchmark(registry.get("fig8").run, bench_result)
    summary = res.meta["summary"]
    histogram = res.meta["histogram_hours"]
    cdfs: dict[str, list] = {"ungrouped": [], "grouped": []}
    for row in res.rows:
        cdfs[row["series"]].append((row["duration"], row["cdf"]))

    def quantile(points, q):
        if not points:
            return 0.0
        index = min(len(points) - 1, int(q * len(points)))
        return points[index][0]

    lines = [
        "Figure 8(a): duration CDF summaries (seconds)",
        f"  ungrouped events: {summary.ungrouped_events}, median "
        f"{quantile(cdfs['ungrouped'], 0.5):.0f}s, 90th pct {quantile(cdfs['ungrouped'], 0.9):.0f}s",
        f"  grouped periods (5-min timeout): {summary.grouped_events}, median "
        f"{quantile(cdfs['grouped'], 0.5):.0f}s, 90th pct {quantile(cdfs['grouped'], 0.9):.0f}s",
        f"  ungrouped events <= 1 minute: {summary.ungrouped_under_one_minute_fraction:.0%}",
        f"  grouped periods <= 1 minute:  {summary.grouped_under_one_minute_fraction:.0%}",
        f"  ungrouped events > 16 hours:  {summary.ungrouped_over_16h_fraction:.1%}",
        f"  grouped periods > 16 hours:   {summary.grouped_over_16h_fraction:.0%}",
        f"Figure 8(b): ungrouped duration histogram ({fig8.BIN_HOURS:g}-hour bins, "
        "first entries)",
        *(
            f"  {int(bucket):>5}h+: {count}"
            for bucket, count in list(sorted(histogram.items()))[:8]
        ),
        "",
        "Paper: >70% of ungrouped events last <= 1 minute (the ON/OFF probing pattern) "
        "but only 4% of grouped periods do; 2% of ungrouped events and 30% of grouped "
        "periods exceed 16 hours; durations fall into short/long/very-long regimes.",
    ]
    text = "\n".join(lines)
    write_result(results_dir, "fig8", text)
    print("\n" + text)

    assert summary.ungrouped_events > summary.grouped_events
    assert summary.ungrouped_under_one_minute_fraction > 0.5
    assert summary.grouped_under_one_minute_fraction < 0.15
    assert summary.grouped_over_16h_fraction > summary.ungrouped_over_16h_fraction
