"""Benchmark: Table 2 -- documented (and inferred) blackhole communities.

Benchmarks the full dictionary build (scraping + NLP + assembly) and
regenerates the per-network-type distribution of Table 2.
"""

from repro.analysis import registry
from repro.dictionary.builder import DictionaryBuilder
from repro.topology.types import NetworkType

from bench_helpers import write_result


def test_bench_dictionary_build(benchmark, bench_dataset):
    dictionary = benchmark(lambda: DictionaryBuilder(bench_dataset.corpus).build())
    assert dictionary.provider_count() > 0


def test_bench_table2(benchmark, bench_result, results_dir):
    res = benchmark(registry.get("table2").run, bench_result)
    rows = res.rows
    text = res.render()
    text += (
        "\n\nPaper: 307 networks / 292 documented communities in total; "
        "Transit/Access 198 (81 inferred), IXP 49, Content 23 (14), "
        "Educ/Research/NfP 15, Enterprise 8, Unknown 14."
    )
    write_result(results_dir, "table2", text)
    print("\n" + text)
    by_type = {row.network_type: row for row in rows}
    transit = by_type[NetworkType.TRANSIT_ACCESS.value]
    total = by_type["TOTAL unique"]
    # Shape checks: transit/access dominates, IXPs are the second-largest
    # class, and the inferred extension is markedly smaller than the
    # documented dictionary.
    assert transit.networks > total.networks * 0.4
    assert by_type[NetworkType.IXP.value].networks >= by_type[NetworkType.CONTENT.value].networks
    assert total.inferred_networks < total.networks
