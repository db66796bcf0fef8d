"""Golden snapshots of the CLI's JSON output.

Each case runs ``repro.cli.main`` in-process and compares the emitted text
byte for byte with a file under ``tests/golden/``.  The commands are
deterministic (seeded scenarios, sorted merges), so any difference is a
behaviour change: an observation, a counter or a key that moved.  Layouts
that must agree (serial vs two inline shards with columnar batches) share
one snapshot.

After an intended output change, rewrite the snapshots with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py

and review the diff of ``tests/golden/`` like any other code change.
"""

from __future__ import annotations

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

CASES = {
    "study-serial": ("study", STUDY),
    "study-inline-batched": ("study", STUDY + ["--workers", "2", "--batch-size", "512"]),
    "sweep": ("sweep", SWEEP),
    "sweep-batched": ("sweep_batched", SWEEP + ["--batch-size", "512"]),
}


def _run(argv: list[str]) -> str:
    lines: list[str] = []
    assert main(argv, out=lines.append) == 0
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_json_matches_snapshot(case):
    snapshot, argv = CASES[case]
    path = GOLDEN / f"{snapshot}.json"
    text = _run(argv)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert text == path.read_text(), f"{' '.join(argv)} differs from {path.name}"
