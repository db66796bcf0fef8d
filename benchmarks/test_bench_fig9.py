"""Benchmark: Figure 9 -- blackholing efficacy on the data plane.

9(a)/9(b): during/after traceroute campaign and path-length deltas;
9(c): dropped vs forwarded traffic towards blackholed prefixes at an IXP.
"""

from repro.analysis import registry

from bench_helpers import write_result


def test_bench_fig9_traceroutes(benchmark, bench_result, results_dir):
    res = benchmark.pedantic(
        registry.get("fig9").run,
        args=(bench_result,),
        rounds=1,
        iterations=1,
    )
    deltas: dict[str, list[int]] = {}
    for row in res.rows:
        deltas.setdefault(row["metric"], []).append(row["delta"])
    summary = res.meta["summary"]

    def positive_fraction(values):
        return sum(1 for v in values if v > 0) / len(values) if values else 0.0

    lines = [
        "Figure 9(a)/(b): traced path-length differences",
        f"  measurements (destination reachable after): {summary.measurements}",
        f"  IP-level  after-vs-during: mean {summary.mean_ip_hop_shortening:+.2f} hops, "
        f"positive (path shortened) {positive_fraction(deltas.get('ip_after_vs_during')):.0%}",
        f"  IP-level  neighbour-vs-blackholed: positive "
        f"{positive_fraction(deltas.get('ip_neighbour_vs_during')):.0%}",
        f"  AS-level  after-vs-during: mean {summary.mean_as_hop_shortening:+.2f} hops",
        f"  dropped at destination AS or its upstream: "
        f"{summary.dropped_at_destination_or_upstream_fraction:.0%}",
        f"  mean IP delta for /24-or-shorter blackholed prefixes: "
        f"{summary.less_specific_mean_ip_delta:+.2f}",
        "",
        "Paper: reachability drops by ~5.9 IP hops and 2-4 AS hops on average, >80% of "
        "paths terminate earlier during blackholing, traffic dies at the destination AS "
        "or its upstream in 16% of cases, and /24-or-shorter blackholings show no "
        "path-length difference.",
    ]
    text = "\n".join(lines)
    write_result(results_dir, "fig9ab", text)
    print("\n" + text)

    assert summary.mean_ip_hop_shortening > 0.5
    assert summary.shortened_path_fraction > 0.25
    assert abs(summary.less_specific_mean_ip_delta) < 1.0


def test_bench_fig9_ixp_traffic(benchmark, bench_result, results_dir):
    series = benchmark.pedantic(
        registry.get("fig9_traffic").run,
        args=(bench_result,),
        rounds=1,
        iterations=1,
    ).rows
    lines = ["Figure 9(c): traffic towards blackholed prefixes at the largest blackholing IXP"]
    for entry in series:
        lines.append(
            f"  {entry['prefix']}: dropped {entry['dropped']:.0f} bytes, forwarded "
            f"{entry['forwarded']:.0f} bytes ({entry['dropped_fraction']:.0%} dropped)"
        )
    lines.append("")
    lines.append(
        "Paper: for the most popular blackholed /32s more than 50% of the traffic is "
        "dropped at the IXP; ~80% of the residual traffic comes from fewer than ten "
        "members that ignore the route-server announcement."
    )
    text = "\n".join(lines)
    write_result(results_dir, "fig9c", text)
    print("\n" + text)

    assert series, "no IXP-targeted blackholing in the benchmark scenario"
    assert any(entry["dropped_fraction"] > 0.5 for entry in series)
