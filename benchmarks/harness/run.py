"""Run the benchmark: every workload, or one workload in this process.

From the repository root, with no environment set-up::

    python3 benchmarks/harness/run.py [--seed N] [--workloads a,b] [--seconds S]
                                      [--out FILE] [--trace-out FILE]

runs each workload in a fresh child process, one at a time, prints every
metric by name with its unit, and exits 1 if any check failed.  A child is
the same script with ``--workload``::

    python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1

It sets the workload up three times (``setup_s`` is the median), times
back-to-back ops for ``--seconds`` (at least the workload's ``min_ops``)
while sampling the host's speed (``hostspeed.py``), computes an untimed
reference, checks every op's output against it, and with ``--trace 1``
adds one traced set-up and one traced op.  Its last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (trace 0) or the per-layer metrics (trace 1) BENCHMARK.json names.

Stores and result files live under ``.bench_tmp/`` in the checkout and
are removed before the process exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
REPO_ROOT = HARNESS.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no repro sources under {REPO_ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(REPO_ROOT / "src"))

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import STUDY_REPORTS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
#: The stage tallies reported as ``exec.builds.<stage>``.
BUILD_STAGES = (
    "dataset", "dictionary", "usage_stats", "inferred_dictionary",
    "effective_dictionary", "inference", "stream_pass",
)
#: Op-phase layers reported as a share of the traced op's wall time.
LAYER_SHARES = (
    "mrt.decode", "stream", "core.engine", "core.cleaning", "core.grouping",
    "core.report", "dictionary.build", "dictionary.infer", "dictionary.usage_stats",
    "exec.plan", "exec.campaign", "exec.store_read", "analysis.to_dict",
)
ENGINE_COUNTS = {
    "core.process_calls": "process_calls",
    "core.batches": "batches_processed",
    "core.row_touches": "row_touches",
    "core.rows_materialised": "rows_materialised",
    "core.observations": "observations",
}


def load_spec() -> dict:
    """BENCHMARK.json: workloads, metric names, units, directions, bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def load_golden() -> dict:
    return json.loads((HARNESS / "golden.json").read_text())


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": git_sha()}


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` directly (``unknown`` outside git)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scratch_dir(prefix: str) -> Path:
    """A private directory under ``.bench_tmp/`` in the checkout."""
    root = REPO_ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=root))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # the shared root, once no other run uses it
    except OSError:
        pass


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _status_kib(field: str) -> int:
    """A ``kB`` field of ``/proc/self/status`` (Linux)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"no {field} in /proc/self/status")


def _reset_peak_rss() -> int:
    """Restart this process's resident-set high-water mark from its current
    size and return that size in KiB.

    Where ``/proc/self/clear_refs`` is missing (not Linux) the mark cannot
    be reset, and the lifetime peak stands in for the current size.
    """
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
        return _status_kib("VmRSS")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_rss_kib() -> int:
    """High-water resident set of this process since the last reset, or of
    any child it waited for (a forked child's includes the pages it
    inherited)."""
    try:
        own = _status_kib("VmHWM")
    except OSError:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _summary(samples: list[float]) -> dict | None:
    if not samples:
        return None
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    size: str = "bench",
    setups: int = SETUP_REPEATS,
    min_ops: int | None = None,
    golden: dict | None = None,
) -> dict:
    """Set up, time, check (and trace) one workload; the run's full record.

    ``min_ops`` defaults to the workload's own floor.
    """
    workload = WORKLOADS[name]
    workdir = scratch_dir(f"{name}-")
    try:
        return _measure(workload, seed, seconds, trace, size, setups,
                        workload.min_ops if min_ops is None else min_ops, golden, workdir)
    finally:
        remove_scratch(workdir)


def _measure(workload, seed, seconds, trace, size, setups, min_ops, golden, workdir) -> dict:
    clock = time.perf_counter
    setup_windows = []
    state = None
    for _ in range(setups):
        state = None  # never hold two inputs at once
        gc.collect()
        with hostspeed.sampled() as window:
            state = workload.setup(seed, size, workdir)
        setup_windows.append(window)

    # Timed ops first, so the untimed reference's own memory never counts
    # in the peak; each op's digests wait for the reference below.  The
    # peak restarts after set-up, so it measures what the ops add to the
    # inputs they hold.
    gc.collect()
    resident_kib = _reset_peak_rss()
    ops = []  # (window, cpu seconds, phase seconds, digests or None, problems)
    deadline = clock() + seconds
    while len(ops) < min_ops or clock() < deadline:
        workload.prepare(state)
        gc.collect()
        cpu = _cpu_seconds()
        try:
            with hostspeed.sampled() as window:
                output = workload.op(state)
        except Exception:  # noqa: BLE001 - a failing op is a result, not a crash
            ops.append((None, 0.0, {}, None, [traceback.format_exc(limit=4)]))
            continue
        cpu = _cpu_seconds() - cpu
        ops.append((window, cpu, workload.phases(output), workload.golden_view(output),
                    workload.check(state, output)))
        output = None
    peak_kib = _peak_rss_kib()

    reference = workload.reference(state)
    expected = None
    if golden is not None and golden.get("seed") == seed:
        expected = golden.get("sizes", {}).get(size, {}).get(workload.name)
    problems = []
    if expected is not None:
        shown = {key: reference[key] for key in expected}
        if shown != expected:
            problems.append(f"reference differs from golden.json: {shown} vs {expected}")

    def digest_problems(view: dict) -> list[str]:
        found = [
            f"{key} differs from the reference: {value} vs {reference[key]}"
            for key, value in view.items()
            if value != reference[key]
        ]
        if expected is not None and any(view[key] != value for key, value in expected.items()):
            found.append("output differs from golden.json")
        return found

    op_windows, cpu_samples, phase_samples = [], [], {}
    failed = 0
    for window, cpu, phases, view, found in ops:
        found = found + (digest_problems(view) if view is not None else [])
        if found:
            failed += 1
            problems.extend(found)
        else:
            op_windows.append(window)
            cpu_samples.append(cpu)
            for phase, phase_seconds in phases.items():
                phase_samples.setdefault(phase, []).append(phase_seconds)
    op_samples = [window.own_s for window in op_windows]
    slowdowns = [window.slowdown for window in setup_windows + op_windows]

    # Work units: every input elem an engine consumes plus every
    # observation the op produces, weighted by the workload's
    # ``observation_units``.  The seed's attack history changes how
    # much work an op has; time per unit absorbs that.  Both end-to-end
    # times are at the reference host speed (hostspeed.py).
    units = reference["elems"] + workload.observation_units * reference["observations"]
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(window.scaled_s for window in setup_windows), "s"),
        "proc.peak_rss_mb": (peak_kib / 1024, "MiB"),
        "proc.op_rss_mb": ((peak_kib - resident_kib) / 1024, "MiB"),
        "host.slowdown": (statistics.median(slowdowns), "ratio"),
    }
    if op_windows:
        scaled = statistics.median(window.scaled_s for window in op_windows)
        metrics["op_us_per_unit"] = (scaled / units * 1e6, "us")
        metrics["proc.cpu_s"] = (statistics.median(cpu_samples), "s")
    record = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "env": environment(),
        "reference": reference,
        "units": units,
        "setup": _summary([window.own_s for window in setup_windows]),
        "op": _summary(op_samples),
        "slowdown": _summary(slowdowns),
        "phases": {phase: _summary(samples) for phase, samples in phase_samples.items()},
    }

    attempted = len(ops)
    if trace:
        state = None
        gc.collect()
        attempted += 1
        try:
            layers, traced, events, view, found = _traced(workload, seed, size, workdir)
            found = found + digest_problems(view)
        except Exception:  # noqa: BLE001
            layers, traced, events, found = {}, None, [], [traceback.format_exc(limit=4)]
        if found:
            failed += 1
            problems.extend(found)
        if traced is not None and op_samples:
            overhead = traced["op_wall_s"] / statistics.median(op_samples) - 1.0
            layers["trace.overhead_frac"] = (overhead, "ratio")
        layers["core.tagged_share"] = (reference["tagged_share"], "ratio")
        metrics.update(layers)
        record["trace"] = traced
        record["trace_events"] = events

    record.update(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics={key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    )
    return record


def _traced(workload, seed, size, workdir):
    """One traced set-up and one traced op.

    Returns the per-layer metrics, the raw op trace (wall time and self
    seconds per layer, ``harness`` being the time no wrapper covered), the
    Chrome trace events, and the traced op's digests and check problems.
    """
    setup_tracer = Tracer()
    with setup_tracer, setup_tracer.span("harness.setup", "harness"):
        state = workload.setup(seed, size, workdir)
    workload.prepare(state)
    gc.collect()
    op_tracer = Tracer()
    with op_tracer, op_tracer.span("harness.op", "harness") as root:
        output = workload.op(state)
    root_span = op_tracer.spans[root]
    op_wall = root_span["end"] - root_span["start"]
    layers = op_tracer.layer_self()

    def rate(tracer: Tracer, layer: str, seconds: float) -> float:
        moved = tracer.counts.get(f"{layer}.bytes", 0)
        return moved / 1e6 / seconds if seconds else 0.0

    metrics: dict[str, tuple[float, str]] = {
        "workload.generate_s": (
            setup_tracer.span_seconds("ScenarioSimulator.generate", inclusive=True), "s"
        ),
        "mrt.encode_mb_per_s": (
            rate(setup_tracer, "mrt.encode", setup_tracer.layer_self().get("mrt.encode", 0.0)),
            "MB/s",
        ),
        "mrt.decode_mb_per_s": (
            rate(op_tracer, "mrt.decode", layers.get("mrt.decode", 0.0)), "MB/s"
        ),
        "trace.op_wall_s": (op_wall, "s"),
        "trace.unattributed_frac": (layers.get("harness", 0.0) / op_wall, "ratio"),
    }
    for layer in LAYER_SHARES:
        metrics[f"{layer}_share"] = (layers.get(layer, 0.0) / op_wall, "ratio")
    for analysis in STUDY_REPORTS:
        seconds = op_tracer.span_seconds(f"analysis.{analysis}")
        metrics[f"analysis.{analysis}_share"] = (seconds / op_wall, "ratio")
    elems = op_tracer.items("stream")
    metrics["stream.elems"] = (elems, "count")
    metrics["stream.passes"] = (elems / max(workload.input_elems(state), 1), "ratio")
    stats = workload.engine_stats(output)
    for metric, key in ENGINE_COUNTS.items():
        metrics[metric] = (sum(entry.get(key, 0) for entry in stats), "count")
    counts = workload.build_counts(output)
    for stage in BUILD_STAGES:
        metrics[f"exec.builds.{stage}"] = (counts.get(stage, 0), "count")
    metrics["exec.store_bytes"] = (workload.store_bytes(state), "count")

    origin = setup_tracer.spans[0]["start"]
    events = setup_tracer.trace_events(origin, "setup") + op_tracer.trace_events(origin, "op")
    traced = {"op_wall_s": op_wall, "layer_self_s": layers}
    return metrics, traced, events, workload.golden_view(output), workload.check(state, output)


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def _format_value(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.6g}"


def print_record(record: dict) -> None:
    env = record["env"]
    print(
        f"== {record['workload']}  seed {record['seed']}  size {record['size']}  "
        f"(nproc {env['nproc']}, Python {env['python']}, git {env['git_sha'][:12]})"
    )
    summaries = {"setup": record["setup"], "op": record["op"], **record["phases"]}
    for phase, summary in summaries.items():
        if summary:
            print(f"   {phase + ':':<10} median {summary['median']:.4f} s of {summary['n']} "
                  f"(min {summary['min']:.4f}, max {summary['max']:.4f}), wall")
    slowdown = record["slowdown"]
    print(f"   host slowdown: median x{slowdown['median']:.3f} "
          f"(min x{slowdown['min']:.3f}, max x{slowdown['max']:.3f}) over set-ups and ops")
    for name, metric in record["metrics"].items():
        print(f"   {name:<34} {_format_value(metric['value']):>14} {metric['unit']}")
    if record.get("trace"):
        print("   traced op, self seconds per layer:")
        for layer, seconds in sorted(record["trace"]["layer_self_s"].items()):
            print(f"     {layer:<32} {seconds:>14.6f} s")
    print(f"   checks: {'pass' if record['correct'] else 'FAIL'} "
          f"({record['failed']} of {record['attempted']} ops failed)")
    for problem in record["problems"]:
        print("   ! " + problem.rstrip().replace("\n", "\n     "))


def result_line(record: dict, spec: dict, trace: bool) -> str:
    """The final stdout line: exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": record["metrics"][entry["name"]]["value"], "unit": entry["unit"]}
        for entry in wanted
        if entry["name"] in record["metrics"]
    }
    return json.dumps(
        {
            "correct": record["correct"] and len(metrics) == len(wanted),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def chrome_trace(records: list[dict]) -> dict:
    """Every traced record as one Chrome Trace Event file, a pid each."""
    events = []
    for pid, record in enumerate(records, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": record["workload"]}}
        )
        events.extend(dict(event, pid=pid) for event in record.get("trace_events", ()))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def run_child(args, spec: dict) -> int:
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), golden=load_golden()
    )
    if args.result:
        Path(args.result).write_text(json.dumps(record))
    print_record(record)
    print(result_line(record, spec, bool(args.trace)), flush=True)
    return 0 if record["correct"] else 1


def run_all(args, spec: dict) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(WORKLOADS)}", file=sys.stderr)
        return 2
    records, exit_code = [], 0
    scratch = scratch_dir("all-")
    try:
        for name in names:
            result = scratch / f"{name}.json"
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
                 "--result", str(result)],
                stdout=subprocess.DEVNULL,
            )
            if result.is_file():
                records.append(json.loads(result.read_text()))
            else:
                print(f"error: workload {name} exited {child.returncode} without a result")
            exit_code |= child.returncode != 0
    finally:
        remove_scratch(scratch)
    for record in records:
        print_record(record)
    if args.out:
        runs = [{k: v for k, v in record.items() if k != "trace_events"} for record in records]
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(chrome_trace(records)))
    return int(exit_code)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="run one workload in this process")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help=f"timed-op budget per workload (default: {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: print per-layer instead of end-to-end metrics")
    parser.add_argument("--result", help="with --workload: write the full record here")
    parser.add_argument("--out", help="write every workload's record as JSON")
    parser.add_argument("--trace-out", help="write the traced reps as Chrome Trace Event JSON")
    args = parser.parse_args(argv)
    if args.workload:
        return run_child(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
