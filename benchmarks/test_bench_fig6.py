"""Benchmark: Figure 6 -- blackholing providers and users per country."""

from repro.analysis import registry

from bench_helpers import write_result


def test_bench_fig6(benchmark, bench_result, results_dir):
    res = benchmark(registry.get("fig6").run, bench_result)
    counts: dict[str, dict[str, int]] = {"providers": {}, "users": {}}
    for row in res.rows:
        counts[row["group"]][row["country"]] = row["networks"]
    provider_counts, user_counts = counts["providers"], counts["users"]
    top_providers = res.meta["top_provider_countries"]
    top_users = res.meta["top_user_countries"]
    lines = [
        "Figure 6(a): blackholing provider ASes per country (top 5)",
        *(f"  {country}: {count}" for country, count in top_providers),
        "Figure 6(b): blackholing user ASes per country (top 5)",
        *(f"  {country}: {count}" for country, count in top_users),
        "",
        "Paper: providers and users are most numerous in Russia, the USA and Germany, "
        "with Brazil and Ukraine also in the users' top 5; IXP providers sit in "
        "European/US/Asian telecommunication hubs.",
    ]
    text = "\n".join(lines)
    write_result(results_dir, "fig6", text)
    print("\n" + text)

    assert sum(provider_counts.values()) == len(bench_result.report.providers())
    assert sum(user_counts.values()) == len(bench_result.report.users())
    # Shape check: the heavy-weight registration countries of the country
    # model (RU/US/DE) appear among the top user countries.
    assert {country for country, _ in top_users} & {"RU", "US", "DE"}
