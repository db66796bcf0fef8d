"""Benchmark: Table 1 -- BGP dataset overview.

Regenerates the per-source peer/prefix counts of Table 1 from the simulated
collector feeds and benchmarks the aggregation step.
"""

from repro.analysis import registry
from repro.analysis.pipeline import StudyPipeline

from bench_helpers import write_result


def test_bench_table1(benchmark, bench_dataset, results_dir):
    res = benchmark(registry.get("table1").run, StudyPipeline(bench_dataset).result())
    rows = res.rows
    text = res.render()  # the table, then the IPv4 share of observed prefixes
    text += (
        "\n\nPaper (March 2017): RIS 425/313 peers, RV 269/197, PCH 8897/1721, "
        "CDN 3349/1282; CDN contributes by far the most unique prefixes "
        "(1.06M of 1.19M unique)."
    )
    write_result(results_dir, "table1", text)
    print("\n" + text)
    cdn = next(row for row in rows if row.source == "cdn")
    others = [row for row in rows if row.source not in ("cdn", "Total")]
    # Shape check: the CDN sees the most peers and the most unique prefixes.
    assert cdn.ip_peers >= max(row.ip_peers for row in others)
    assert cdn.unique_prefixes >= max(row.unique_prefixes for row in others)
