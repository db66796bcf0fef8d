"""Self-test of the benchmark harness, at ScenarioConfig.small size.

Runs every workload's op, checks and traced rep once (one set-up, one
timed op) and asserts what the benchmark's numbers rest on: the checks
pass, every metric BENCHMARK.json names is emitted, layer self times are
consistent with the traced wall time, every patched callable is restored,
host-speed sampling puts the alarm back and the Chrome trace loads.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS  # noqa: E402

SPEC = run.load_spec()


def _patchable() -> dict[tuple[object, str], object]:
    return {
        (target.resolve(), attribute): vars(target.resolve())[attribute]
        for target in TARGETS
        for attribute in target.attributes
    }


@pytest.fixture(scope="module")
def measured():
    originals = _patchable()
    records = {
        name: run.measure(
            name, 23, 0.0, True, size="small", setups=1, min_ops=1, golden=run.load_golden()
        )
        for name in run.WORKLOADS
    }
    return records, originals


def test_workloads_match_benchmark_json():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_checks_pass(measured, name):
    record = measured[0][name]
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] == 2


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_named_metric_is_emitted(measured, name):
    record = measured[0][name]
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        line = json.loads(run.result_line(record, SPEC, trace))
        assert line["correct"]
        assert sorted(line["metrics"]) == sorted(entry["name"] for entry in SPEC[section])
        if not trace:
            assert all(metric["value"] > 0 for metric in line["metrics"].values()), line


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_self_times_fit_the_traced_wall_time(measured, name):
    traced = measured[0][name]["trace"]
    layers = traced["layer_self_s"]
    assert all(seconds >= -1e-9 for seconds in layers.values()), layers
    attributed = sum(seconds for layer, seconds in layers.items() if layer != "harness")
    assert attributed <= traced["op_wall_s"] * (1 + 1e-9)


def test_patched_callables_are_restored(measured):
    originals = measured[1]
    for (owner, attribute), original in originals.items():
        assert vars(owner)[attribute] is original, f"{owner.__name__}.{attribute}"


def test_chrome_trace_loads(measured, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(run.chrome_trace(list(measured[0].values()))))
    events = json.loads(path.read_text())["traceEvents"]
    names = {event["args"]["name"] for event in events if event["ph"] == "M"}
    assert names == set(run.WORKLOADS)
    spans = [event for event in events if event["ph"] == "X"]
    assert spans and all(event["dur"] >= 0 for event in spans)
    assert {event["pid"] for event in spans} == set(range(1, len(run.WORKLOADS) + 1))


def test_golden_drift_fails_every_op():
    golden = run.load_golden()
    golden["sizes"]["small"]["study-dense"]["digest"] = "0" * 32
    record = run.measure(
        "study-dense", 23, 0.0, False, size="small", setups=1, min_ops=1, golden=golden
    )
    assert not record["correct"]
    assert record["failed"] == record["attempted"] == 1
    assert "op_us_per_unit" not in record["metrics"]


def test_host_speed_sampling_restores_the_alarm():
    def previous(*_signal):
        pass

    original = signal.signal(signal.SIGALRM, previous)
    try:
        with hostspeed.sampled() as window:
            deadline = time.perf_counter() + 3 * hostspeed.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, original)
    assert len(window.kernel_cpu_s) >= 2
    assert 0 < window.own_s < window.wall_s
    assert window.scaled_s == pytest.approx(window.own_s / window.slowdown)


def test_compare_verdicts():
    steady, slower = [1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2]
    assert compare.verdict(steady, steady, "lower", 0.1) == "within bound"
    assert compare.verdict(steady, slower, "lower", 0.1) == "worse"
    assert compare.verdict(steady, slower, "higher", 0.1) == "within bound"
    assert compare.verdict(steady, [0.5, 1.5, 1.0, 2.0], "lower", 0.1) == "unresolved"
