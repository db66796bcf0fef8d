"""Benchmark: Figure 2 -- prefix-length usage of blackhole vs other communities.

Benchmarks the community-usage statistics pass plus the inferred-dictionary
heuristic, and regenerates the separation statistics behind Figure 2.
"""

from repro.analysis import registry
from repro.dictionary.inference import CommunityUsageStats, ExtendedDictionaryInference

from bench_helpers import write_result


def test_bench_usage_stats_pass(benchmark, bench_result):
    dataset = bench_result.dataset

    def run() -> CommunityUsageStats:
        stats = CommunityUsageStats()
        stats.observe_stream(dataset.bgp_stream(), bench_result.dictionary)
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.total_announcements > 0


def test_bench_fig2(benchmark, bench_result, results_dir):
    (summary,) = benchmark(registry.get("fig2").run, bench_result).rows
    surface = bench_result.analysis("fig2_surface").rows
    blackhole_points = [row for row in surface if row["label"] == "blackhole"]
    non_blackhole_points = [row for row in surface if row["label"] == "non-blackhole"]
    text = (
        "Figure 2: fraction of community occurrences per prefix length\n"
        f"blackhole communities observed: {summary.blackhole_communities}\n"
        f"non-blackhole communities observed: {summary.non_blackhole_communities}\n"
        f"mean fraction of blackhole-community use on prefixes more specific than /24: "
        f"{summary.blackhole_more_specific_fraction:.2%}\n"
        f"mean fraction of non-blackhole-community use on /24 or shorter prefixes: "
        f"{summary.non_blackhole_at_most_24_fraction:.2%}\n"
        f"inferred (undocumented) communities: {summary.inferred_communities} "
        f"in {summary.inferred_ases} ASes\n"
        f"surface points: {len(surface)} "
        f"({len(blackhole_points)} blackhole, {len(non_blackhole_points)} non-blackhole)\n"
        "\nPaper: blackhole communities are applied almost exclusively to /32s while\n"
        "non-blackhole communities concentrate on /24 and less-specific prefixes;\n"
        "the heuristic yields 111 inferred communities in 102 ASes."
    )
    write_result(results_dir, "fig2", text)
    print("\n" + text)

    assert summary.blackhole_more_specific_fraction > 0.75
    assert summary.non_blackhole_at_most_24_fraction > 0.6
    assert summary.inferred_communities >= 1
    # Inferred providers are genuine undocumented blackholing providers.
    truth = {s.provider_asn for s in bench_result.topology.undocumented_services()}
    assert bench_result.inferred_dictionary.providers() <= truth


def test_bench_extended_inference(benchmark, bench_result):
    extension = ExtendedDictionaryInference(bench_result.dictionary)
    inferred = benchmark(extension.infer, bench_result.usage_stats)
    assert isinstance(inferred, list)
