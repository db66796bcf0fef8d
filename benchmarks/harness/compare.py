"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 benchmarks/harness/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a ``run.py --out`` file (several workloads) or a ``run.py
--workload ... --result`` record (one).  For every workload and end-to-end
metric it prints both sides' medians and quartiles and a verdict:

* ``within bound`` -- B's median is not worse than A's by more than the
  metric's bound;
* ``worse`` -- it is;
* ``unresolved`` -- either side's run-to-run spread (quartile distance over
  median) exceeds the bound, so the runs cannot tell.

Exits 1 when any pairing is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_records(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        payload = json.loads(Path(path).read_text())
        records.extend(payload["runs"] if "runs" in payload else [payload])
    return records


def values_by_key(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    spreads = []
    for side in (a, b):
        first, median, third = quartiles(side)
        spreads.append((third - first) / median if median else 0.0)
    if max(spreads) > bound:
        return "unresolved"
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a if median_a else 0.0
    worse = change > bound if better == "lower" else -change > bound
    return "worse" if worse else "within bound"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: compare.py A.json [...] -- B.json [...]", file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = argv[:split], argv[split + 1:]
    if not side_a or not side_b:
        print("error: name at least one file on each side of --", file=sys.stderr)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    a_values = values_by_key(load_records(side_a))
    b_values = values_by_key(load_records(side_b))
    workloads = [entry["name"] for entry in spec["workloads"]]
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'change':>8}  verdict (bound)")
    any_worse = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            cells = []
            for side in (a, b):
                first, median, third = quartiles(side)
                cells.append(f"{median:.4g} [{first:.4g}, {third:.4g}] n={len(side)}")
            change = statistics.median(b) / statistics.median(a) - 1.0
            outcome = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= outcome == "worse"
            print(f"{workload:<14} {metric['name']:<18} {cells[0]:<32} {cells[1]:<32} "
                  f"{change:>+8.1%}  {outcome} ({metric['bound']:.0%})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
