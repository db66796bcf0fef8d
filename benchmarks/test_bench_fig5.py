"""Benchmark: Figure 5 -- prefixes per blackholing provider and per user type."""

from repro.analysis import registry
from repro.topology.types import NetworkType

from bench_helpers import write_result


def test_bench_fig5(benchmark, bench_result, results_dir):
    res = benchmark(registry.get("fig5").run, bench_result)
    cdfs: dict[str, dict[str, list]] = {"providers": {}, "users": {}}
    for row in res.rows:
        cdfs[row["plot"]].setdefault(row["group"], []).append((row["value"], row["cdf"]))
    provider_cdfs, user_cdfs = cdfs["providers"], cdfs["users"]
    summary = res.meta["summary"]

    def describe(points) -> str:
        if not points:
            return "n/a"
        values = [v for v, _ in points]
        return f"n={len(values)}, median={values[len(values) // 2]:.0f}, max={values[-1]:.0f}"

    lines = [
        "Figure 5(a): blackholed prefixes per provider (CDF summary)",
    ]
    for label, points in sorted(provider_cdfs.items()):
        lines.append(f"  {label:<15} {describe(points)}")
    lines.append("Figure 5(b): blackholed prefixes per user type (CDF summary)")
    for label, points in sorted(user_cdfs.items()):
        lines.append(f"  {label:<24} {describe(points)}")
    lines.extend(
        [
            f"providers with a single blackholed prefix: {summary.providers_with_single_prefix_fraction:.0%} "
            f"(IXPs: {summary.ixps_with_single_prefix_fraction:.0%})",
            f"content providers: {summary.content_user_fraction:.0%} of users but "
            f"{summary.content_prefix_share:.0%} of blackholed prefixes",
            "",
            "Paper: ~15% of transit/access providers (20% of IXPs) have a single blackholed "
            "prefix; content providers are 18% of users yet originate 43% of blackholed prefixes.",
        ]
    )
    text = "\n".join(lines)
    write_result(results_dir, "fig5", text)
    print("\n" + text)

    # Shape checks: content users punch above their weight, and both provider
    # groups span multiple orders of magnitude in prefix counts.
    assert summary.content_prefix_share > summary.content_user_fraction
    transit_points = provider_cdfs.get("Transit/Access", [])
    assert transit_points and transit_points[-1][0] > 5 * transit_points[0][0]
    assert NetworkType.CONTENT.value in user_cdfs
