"""Golden snapshots of the CLI's JSON output.

Each case runs ``repro.cli.main`` in-process and compares the emitted text
byte for byte with a file under ``tests/golden/``.  The commands are
deterministic (seeded scenarios, sorted merges), so any difference is a
behaviour change: an observation, a counter or a key that moved.  Layouts
that must agree (serial vs two shards) share one snapshot.  The sweep
snapshot carries the dispatch counters of the one columnar path
(``process_calls`` 0, ``batches_processed`` per cell).

``repro report`` over every registered analysis is too large to store
whole (Figure 8 alone has thousands of rows), so its snapshot keeps, per
analysis, the row count, the full ``meta`` and the SHA-256 of the
``to_dict()`` payload serialised with sorted keys.

After an intended output change, rewrite the snapshots with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py

and review the diff of ``tests/golden/`` like any other code change.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

STUDY = ["study", "--scale", "small", "--report", "all", "--format", "json"]
SWEEP = [
    "sweep", "--scale", "small",
    "--ablate", "baseline", "--ablate", "no-bundling", "--ablate", "inferred-dictionary",
    "--format", "json",
]

#: Every registered analysis, spelled out so a new or renamed one shows here.
REPORT = [
    "report",
    "fig2", "fig2_surface", "fig4", "fig4_growth", "fig5", "fig6", "fig7",
    "fig8", "fig9", "fig9_traffic",
    "table1", "table2", "table3", "table3_summary", "table4",
    "--scale", "small", "--format", "json",
]

CASES = {
    "study-serial": ("study", STUDY),
    "study-sharded": ("study", STUDY + ["--workers", "2"]),
    "sweep-batched": ("sweep_batched", SWEEP),
}


def _run(argv: list[str]) -> str:
    lines: list[str] = []
    assert main(argv, out=lines.append) == 0
    return "\n".join(lines) + "\n"


def _report_digest(text: str) -> str:
    """Row count, meta and payload hash of each analysis in a report."""
    payload = json.loads(text)
    digest = {
        name: {
            "rows": len(res["rows"]),
            "meta": res["meta"],
            "sha256": hashlib.sha256(
                json.dumps(res, sort_keys=True).encode()
            ).hexdigest(),
        }
        for name, res in payload["analyses"].items()
    }
    return json.dumps(digest, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_json_matches_snapshot(case):
    snapshot, argv = CASES[case]
    path = GOLDEN / f"{snapshot}.json"
    text = _run(argv)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert text == path.read_text(), f"{' '.join(argv)} differs from {path.name}"


def test_report_matches_snapshot():
    path = GOLDEN / "report.json"
    text = _report_digest(_run(REPORT))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert text == path.read_text(), f"{' '.join(REPORT)} differs from {path.name}"
