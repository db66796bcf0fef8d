"""Benchmark: Figure 7 -- services, providers per event, propagation distance."""

from repro.analysis import registry

from bench_helpers import write_result


def test_bench_fig7(benchmark, bench_result, results_dir):
    res = benchmark(registry.get("fig7").run, bench_result)
    histograms: dict[str, dict] = {"services": {}, "providers_per_event": {}, "as_distance": {}}
    for row in res.rows:
        histograms[row["plot"]][row["bucket"]] = row["count"]
    services = histograms["services"]
    per_event = histograms["providers_per_event"]
    distances = histograms["as_distance"]
    summary = res.meta["summary"]

    top_services = sorted(services.items(), key=lambda item: -item[1])[:6]
    event_total = sum(per_event.values())
    distance_total = sum(distances.values())
    lines = [
        "Figure 7(a): services on blackholed prefixes (top entries)",
        *(f"  {service:<6} {count}" for service, count in top_services),
        f"  HTTP share of blackholed prefixes: {summary.http_prefix_fraction:.0%}, "
        f"no probed service: {summary.no_service_fraction:.0%}",
        "Figure 7(b): blackholing providers per blackholing event",
        *(
            f"  {providers} provider(s): {count} events ({count / event_total:.1%})"
            for providers, count in sorted(per_event.items())
        ),
        f"  events with multiple providers: {summary.multi_provider_event_fraction:.0%}, "
        f"maximum providers per event: {summary.max_providers_per_event}",
        "Figure 7(c): AS distance between collector and blackholing provider",
        *(
            f"  {bucket:>7}: {count} ({count / distance_total:.1%})"
            for bucket, count in sorted(
                distances.items(), key=lambda item: (item[0] != "no-path", item[0])
            )
        ),
        "",
        "Paper: HTTP on 53% of blackholed prefixes and ~40% expose no probed service; "
        "28% of events use multiple providers (max 20); ~50% of detections are "
        "no-path (bundling), ~20% at 0 AS distance (IXPs), >10% at distance 1, and "
        "~30% propagate at least one hop beyond the provider.",
    ]
    text = "\n".join(lines)
    write_result(results_dir, "fig7", text)
    print("\n" + text)

    # Shape checks.
    assert summary.http_prefix_fraction > 0.3
    assert 0.2 <= summary.no_service_fraction <= 0.6
    assert per_event.get(1, 0) > event_total * 0.5
    assert 0.05 <= summary.multi_provider_event_fraction <= 0.5
    assert 0.25 <= summary.no_path_fraction <= 0.75
    assert 0.1 <= summary.propagated_beyond_provider_fraction <= 0.6
