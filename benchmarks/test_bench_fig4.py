"""Benchmark: Figure 4 -- the rise of BGP blackholing (Dec 2014 - Mar 2017).

Uses the longitudinal scenario to regenerate the daily time series of active
blackholing providers, users and prefixes, the growth factors of Section 6,
and the spike detection/annotation against the named DDoS incidents.
"""

from repro.analysis import fig4, registry

from bench_helpers import write_result


def test_bench_fig4(benchmark, longitudinal_result, results_dir):
    daily = benchmark(registry.get("fig4").run, longitudinal_result).rows
    growth_result = longitudinal_result.analysis("fig4_growth")
    growth = growth_result.meta["growth"]
    spikes = growth_result.rows
    window = fig4.GROWTH_WINDOW_DAYS

    peak_prefixes = max(d.prefixes for d in daily)
    peak_users = max(d.users for d in daily)
    peak_providers = max(d.providers for d in daily)
    annotated = [s for s in spikes if s.incident_label]
    lines = [
        "Figure 4: daily blackholing activity (longitudinal scenario)",
        f"days simulated: {len(daily)}",
        f"daily providers: first-{window}-day mean {growth.providers_start:.1f} -> "
        f"last-{window}-day mean {growth.providers_end:.1f} (x{growth.provider_growth:.1f}), "
        f"peak {peak_providers}",
        f"daily users:     first-{window}-day mean {growth.users_start:.1f} -> "
        f"last-{window}-day mean {growth.users_end:.1f} (x{growth.user_growth:.1f}), "
        f"peak {peak_users}",
        f"daily prefixes:  first-{window}-day mean {growth.prefixes_start:.1f} -> "
        f"last-{window}-day mean {growth.prefixes_end:.1f} (x{growth.prefix_growth:.1f}), "
        f"peak {peak_prefixes}",
        f"spikes detected: {len(spikes)}, annotated with named incidents: {len(annotated)} "
        f"({sorted({s.incident_label for s in annotated})})",
        "",
        "Paper: providers more than doubled (40 -> ~100/day), users grew fourfold "
        "(peaking ~400/day), prefixes grew sixfold (500 -> 3,000+, peaks over 5,000); "
        "spikes line up with the NS1, Turkish-coup, Rio, Krebs and Liberia attacks.",
    ]
    text = "\n".join(lines)
    write_result(results_dir, "fig4", text)
    print("\n" + text)

    # Shape checks: clear multi-year growth in all three series, prefixes
    # growing the fastest, and at least one annotated spike.
    assert growth.provider_growth > 1.3
    assert growth.user_growth > 1.5
    assert growth.prefix_growth > 2.0
    assert growth.prefix_growth >= growth.provider_growth
    assert annotated, "no spike matched a named incident"
