"""Benchmark: Table 4 -- blackhole visibility per provider network type."""

from repro.analysis import registry
from repro.topology.types import NetworkType

from bench_helpers import write_result


def test_bench_table4(benchmark, bench_result, results_dir):
    res = benchmark(registry.get("table4").run, bench_result)
    rows = res.rows
    text = res.render()
    text += (
        "\n\nPaper: Transit/Access 184 providers / 986 users / 80,262 prefixes (~90%), "
        "IXP 25 providers but 673 users / 20,824 prefixes, Content 19/90/2,428, "
        "Enterprise 5/127/4,144, Educ/Res/NfP 5/40/1,244."
    )
    write_result(results_dir, "table4", text)
    print("\n" + text)

    by_type = {row.network_type: row for row in rows}
    transit = by_type[NetworkType.TRANSIT_ACCESS.value]
    ixp = by_type[NetworkType.IXP.value]
    total = by_type["Total (unique)"]
    # Transit/access providers dominate both provider count and prefixes.
    assert transit.providers > total.providers * 0.5
    assert transit.prefixes > total.prefixes * 0.5
    # IXPs are few but serve a disproportionate number of users.
    assert ixp.providers < transit.providers
    assert ixp.users > ixp.providers
