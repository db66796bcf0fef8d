"""Command-line interface.

``python -m repro`` runs the full study on a simulated scenario and prints
the requested tables/summaries, so the pipeline can be exercised without
writing any code::

    python -m repro study --scale small --seed 23 --report tables
    python -m repro study --scale small --report summary --format json
    python -m repro study --scale bench --workers 4    # shard-parallel inference
    python -m repro simulate --scale small     # scenario statistics only
    python -m repro sweep --scale small --seeds 2 --ablate baseline \\
        --ablate no-bundling                   # shared-artifact campaign
    python -m repro sweep --scale small --store runs/ --resume  # durable+resumable
    python -m repro sweep --scale small --store runs/ \\
        --workers-distributed 4                # fleet of worker processes
    python -m repro worker --scale small --store runs/  # join from any host
    python -m repro sweep --scale small --store runs/ --status  # queue state
    python -m repro report --list              # enumerate the analysis registry
    python -m repro report fig2 table1 --format json
    python -m repro report table1 --store runs/ --output artifacts/

The ``--scale`` presets map to the scenario configurations used by the tests
(``small``), the benchmark harness (``bench``), and the paper's analysis and
longitudinal windows (``analysis``, ``longitudinal``); larger scales take
correspondingly longer.  ``sweep`` expands a scenario matrix (seeds x
ablations x scales) through one :class:`~repro.exec.campaign.StudyCampaign`:
grid-invariant artifacts are computed once, and cells sharing a stream run
their inference engines fused -- one stream iteration feeding every cell.
Its ``--report`` flag tabulates registered analyses across all cells *and*
prunes the schedule to the stages those analyses need, so
``sweep --report fig2`` never runs inference at all; ``--by``/``--aggregate``
group and collapse those tables across an axis (e.g. mean over seeds).
``--store DIR`` makes the campaign durable: every shareable stage product is
persisted content-addressed under ``DIR``, and ``--resume`` lets a fresh
process pick the sweep back up with zero rebuilds of grid-invariant stages.
``--workers-distributed N`` turns the store into a shared work-queue served
by N worker processes (lease-based claims, exactly-once shared-stage builds
fleet-wide); standalone ``repro worker --store DIR`` invocations -- on this
host or any other sharing the path -- join the same queue, and ``sweep
--status --store DIR`` inspects its cell/lease/worker state.
``report`` resolves named figure/table artifacts lazily -- each analysis
builds only the pipeline stages its registry entry declares, so e.g.
``repro report fig2`` never pays for the inference pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import metadata
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis import registry
from repro.analysis.pipeline import StudyPipeline, StudyResult
from repro.exec.campaign import ABLATIONS, AblationSpec, ScenarioMatrix, StudyCampaign
from repro.exec.context import ArtifactCache
from repro.exec.plan import ExecutionPlan
from repro.exec.spill import DEFAULT_MAX_RESIDENT_OBSERVATIONS
from repro.exec.store import DiskStore, dump_artifact
from repro.routing.collectors import (
    PROJECT_CDN,
    PROJECT_PCH,
    PROJECT_RIS,
    PROJECT_ROUTEVIEWS,
)
from repro.workload.config import SCALE_PRESETS, ScenarioConfig
from repro.workload.simulation import ScenarioDataset, ScenarioSimulator

#: Collector projects a sweep can be restricted to (--projects), drawn from
#: the canonical platform names so the choices cannot drift.
PROJECT_CHOICES = (PROJECT_RIS, PROJECT_ROUTEVIEWS, PROJECT_PCH, PROJECT_CDN)

__all__ = ["main"]


def _status_out(args: argparse.Namespace, out: Callable[[str], None]) -> Callable[[str], None]:
    """Where progress lines go: swallowed when the payload must be pure JSON."""
    if getattr(args, "format", "text") == "json":
        return lambda _line: None
    return out


def _package_version() -> str:
    """The version of the package actually executing.

    ``repro.__version__`` is the source of truth -- the distribution
    metadata is generated from it at build time -- and, unlike the
    installed distribution's version, always matches the code running
    (e.g. a ``PYTHONPATH=src`` tree next to an older install).
    """
    try:
        from repro import __version__

        return __version__
    except ImportError:  # pragma: no cover - attribute removed
        return metadata.version("repro-bgp-blackholing")


def _build_plan(args: argparse.Namespace) -> ExecutionPlan:
    """The execution plan shared by study/report/sweep (raises ValueError).

    One construction site for the layout knobs (--workers, --spill-dir,
    --max-resident-observations) so the commands cannot drift.
    """
    return ExecutionPlan(
        workers=args.workers,
        spill_dir=args.spill_dir,
        max_resident_observations=args.max_resident_observations,
    )


def _simulate(args: argparse.Namespace, out: Callable[[str], None]) -> ScenarioDataset:
    config = ScenarioConfig.for_scale(args.scale, seed=args.seed)
    out(f"Simulating scenario '{args.scale}' (seed {args.seed}) ...")
    dataset = ScenarioSimulator(config).generate()
    out(
        f"  ASes: {len(dataset.topology.ases)}, IXPs: {len(dataset.topology.ixps)}, "
        f"blackholing services: {len(dataset.topology.blackholing_services)}"
    )
    out(
        f"  attacks: {len(dataset.timeline)}, blackholing requests: {len(dataset.requests)}, "
        f"BGP update messages: {dataset.message_count}"
    )
    out(
        f"  window: {dataset.config.start_date} .. {dataset.config.end_date} "
        f"({dataset.config.duration_days:.0f} days)"
    )
    return dataset


def _cmd_simulate(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    _simulate(args, out)
    return 0


def _cmd_study(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    # Validate the execution layout before paying for the simulation; the
    # same plan instance then drives the pipeline.
    try:
        plan = _build_plan(args)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    status = _status_out(args, out)
    dataset = _simulate(args, status)
    pipeline = StudyPipeline(dataset, plan=plan)
    if args.workers > 1:
        status(
            f"Running the dictionary + inference pipeline "
            f"({args.workers} shards, {pipeline.plan.resolved_backend()} backend) ..."
        )
    else:
        status("Running the dictionary + inference pipeline ...")
    result = pipeline.run()

    if args.format == "json":
        names = {
            "summary": ("table3_summary",),
            "tables": ("table1", "table2", "table3", "table4"),
            "all": ("table3_summary", "table1", "table2", "table3", "table4"),
        }[args.report]
        out(
            json.dumps(
                {
                    "command": "study",
                    "scale": args.scale,
                    "seed": args.seed,
                    "analyses": {
                        name: res.to_dict()
                        for name, res in result.analyses(names).items()
                    },
                },
                indent=2,
            )
        )
        return 0

    report = result.report
    if args.report in ("summary", "all"):
        out("")
        out("Study summary")
        out(f"  documented communities: {result.dictionary.community_count()} "
            f"({result.dictionary.provider_count()} providers)")
        out(f"  inferred communities:   {result.inferred_dictionary.community_count()}")
        out(f"  blackholing providers:  {len(report.providers())}")
        out(f"  blackholing users:      {len(report.users())}")
        out(f"  blackholed prefixes:    {len(report.ipv4_prefixes())} IPv4 "
            f"({report.host_route_fraction():.1%} /32s)")
        out(f"  bundling share:         {report.bundled_fraction():.1%}")
        daily = result.analysis("fig4").rows
        if daily:
            peak = max(daily, key=lambda d: d.prefixes)
            out(f"  peak daily prefixes:    {peak.prefixes}")

    if args.report in ("tables", "all"):
        for name in ("table1", "table2", "table3", "table4"):
            out("")
            out(result.analysis(name).render())
    return 0


def _cmd_report(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.list:
        if args.format == "json":
            out(
                json.dumps(
                    {
                        "command": "report",
                        "analyses": [
                            {
                                "name": spec.name,
                                "kind": spec.kind,
                                "needs": list(spec.needs),
                                "title": spec.title,
                            }
                            for spec in registry.all_analyses()
                        ],
                    },
                    indent=2,
                )
            )
            return 0
        out(f"{'name':<14} {'kind':<7} {'needs':<52} title")
        for spec in registry.all_analyses():
            needs = ",".join(spec.needs) or "-"
            out(f"{spec.name:<14} {spec.kind:<7} {needs:<52} {spec.title}")
        return 0
    if not args.names:
        out("error: name at least one analysis, or pass --list")
        return 2
    try:
        selected = [registry.get(name) for name in args.names]
    except KeyError as exc:
        out(f"error: {exc.args[0]}")
        return 2
    try:
        plan = _build_plan(args)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    status = _status_out(args, out)
    dataset = _simulate(args, status)
    # A lazy result: each analysis resolves only its declared needs, so a
    # report over inference-free artifacts never runs the inference pass.
    # With --store, shareable stages read from (and warm) a durable campaign
    # store -- a report over a scenario some sweep already paid for loads
    # its dictionaries and usage statistics from disk.
    shared_cache = None
    if args.store:
        shared_cache = ArtifactCache(DiskStore(args.store))
    result: StudyResult = StudyPipeline(
        dataset, plan=plan, shared_cache=shared_cache
    ).result()
    computed = {spec.name: spec.run(result) for spec in selected}
    if args.output:
        output_dir = Path(args.output)
        output_dir.mkdir(parents=True, exist_ok=True)
        for name, res in computed.items():
            _, payload = dump_artifact(res)  # the "analysis" wire format
            target = output_dir / f"{name}.json"
            target.write_bytes(payload)
            status(f"wrote {target}")
    if args.format == "json":
        out(
            json.dumps(
                {
                    "command": "report",
                    "scale": args.scale,
                    "seed": args.seed,
                    "analyses": {name: res.to_dict() for name, res in computed.items()},
                },
                indent=2,
            )
        )
        return 0
    for res in computed.values():
        out("")
        out(res.render())
    return 0


def _build_matrix(args: argparse.Namespace) -> ScenarioMatrix:
    """The scenario matrix shared by sweep/worker/--status (raises ValueError).

    One construction site for the grid axes: a ``repro worker`` joining a
    sweep's queue must derive the *identical* matrix (the queue is
    addressed by the cells' content digest), so both commands parse their
    axis flags through this helper.
    """
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    seeds = tuple(args.seed + offset for offset in range(args.seeds))
    # The ablation axis: named registry variants plus ad-hoc grouping-
    # timeout variants (the campaign layer always supported custom specs;
    # --ablate-timeout is the CLI surface for them).
    ablations: list[AblationSpec | str] = list(args.ablate or ())
    for timeout in args.ablate_timeout or ():
        if timeout <= 0:
            raise ValueError("--ablate-timeout must be a positive number of seconds")
        ablations.append(AblationSpec(f"timeout-{timeout:g}s", grouping_timeout=timeout))
    return ScenarioMatrix(
        seeds=seeds,
        ablations=ablations or ("baseline",),
        scales=args.scale or ("small",),
    )


def _cmd_sweep(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    try:
        plan = _build_plan(args)
        matrix = _build_matrix(args)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    if args.resume and not args.store:
        out("error: --resume requires --store DIR")
        return 2
    if (args.aggregate or args.by != "cell") and not args.report:
        out("error: --by/--aggregate shape tabulated reports; add --report ANALYSIS")
        return 2
    if args.status:
        return _sweep_status(args, matrix, out)
    if args.workers_distributed:
        return _sweep_distributed(args, plan, matrix, out)
    seeds = matrix.seeds
    report_names = tuple(args.report or ())
    try:
        for name in report_names:
            registry.get(name)
    except KeyError as exc:
        out(f"error: {exc.args[0]}")
        return 2
    status = _status_out(args, out)
    store = DiskStore(args.store, resume=args.resume) if args.store else None
    projects = set(args.projects) if args.projects else None
    campaign = StudyCampaign(matrix, plan=plan, projects=projects, store=store)
    status(
        f"Sweeping {len(matrix)} cells "
        f"(scales {'/'.join(matrix.scales)}, seeds {'/'.join(map(str, seeds))}, "
        f"ablations {'/'.join(spec.name for spec in matrix.ablations)}"
        + (f", projects {'/'.join(sorted(projects))}" if projects else "")
        + ") ..."
    )
    if store is not None:
        preexisting = len(store)
        mode = "resuming" if args.resume else "cold run"
        if not args.resume and preexisting:
            # Conflicting digests stay pinned in memory on a cold run (the
            # pre-existing bytes are neither read nor clobbered), so the
            # disk spill is effectively off -- worth telling the user.
            mode = "cold run; pre-existing entries ignored, pass --resume to reuse"
        status(f"Artifact store: {args.store} ({preexisting} durable entries, {mode})")
    # With --report the sweep is needs-pruned: only the stages the named
    # analyses can trigger run, so e.g. `sweep --report fig2` never
    # constructs an inference engine in any cell.  Without it, every cell
    # is fully materialised (fused: one stream pass per cell group).
    results = campaign.run(analyses=report_names or None)
    try:
        tables = {
            name: results.tabulate(name, by=args.by, aggregate=args.aggregate)
            for name in report_names
        }
    except ValueError as exc:
        # e.g. aggregating an analysis whose row sets differ across the
        # grouped cells (fig7's per-cell event rows) -- user input, not a
        # bug: report it the CLI way instead of a traceback.
        out(f"error: {exc}")
        return 2
    counts = results.build_counts
    cells = len(matrix)
    # One directory walk, shared by the JSON and text footers.
    durable_entries = len(store) if store is not None else 0

    def cell_axes(cell) -> dict:
        return {
            "cell": cell.label,
            "seed": cell.seed,
            "scale": cell.scale,
            "ablation": cell.ablation.name,
            # Producer attribution: distributed sweeps fill this with the
            # worker that completed the cell; an in-process sweep has none.
            "worker": None,
        }

    def cell_entry(cell, result) -> dict:
        entry = cell_axes(cell)
        # Study numbers only when the inference stage already ran for the
        # cell (always on a full sweep; on a pruned sweep only when the
        # requested analyses forced it) -- never trigger it just for them.
        if result.context.has("observations"):
            report = result.report
            outcome = result.context.get("execution_outcome")
            entry.update(
                observations=len(result.observations),
                providers=len(report.providers()),
                users=len(report.users()),
                prefixes=len(report.ipv4_prefixes()),
                # Dispatch counters: the plan routes whole ElemBatch columns
                # (process_calls stays 0); row_touches counts the interesting
                # rows that reached Python-level handling; rows_materialised
                # counts the row thunks the kernel fired (at most
                # row_touches).
                batches_processed=outcome.engine_stats.batches_processed,
                process_calls=outcome.engine_stats.process_calls,
                row_touches=outcome.engine_stats.row_touches,
                rows_materialised=outcome.engine_stats.rows_materialised,
            )
            if outcome.spill is not None:
                entry["spill"] = dataclasses.asdict(outcome.spill)
        return entry

    if args.format == "json":
        cell_payload = [cell_entry(cell, result) for cell, result in results.items()]
        payload = {
            "command": "sweep",
            "cells": cell_payload,
            "build_counts": dict(counts),
            "reports": {name: table.to_dict() for name, table in tables.items()},
        }
        if store is not None:
            payload["store"] = {
                "path": args.store,
                "resume": bool(args.resume),
                "entries": durable_entries,
            }
        out(json.dumps(payload, indent=2))
        return 0

    if not report_names:
        out("")
        out(f"{'cell':<34} {'obs':>6} {'providers':>9} {'users':>6} {'prefixes':>8}")
        for cell, result in results.items():
            report = result.report
            out(
                f"{cell.label:<34} {len(result.observations):>6} "
                f"{len(report.providers()):>9} {len(report.users()):>6} "
                f"{len(report.ipv4_prefixes()):>8}"
            )

    out("")
    out("Shared-artifact savings (stage builds vs. independent runs):")
    for stage in ("dataset", "dictionary", "usage_stats", "inference", "stream_pass"):
        out(f"  {stage:<12} {counts.get(stage, 0):>3} build(s) for {cells} cells")
    if store is not None:
        out(f"  store        {durable_entries:>3} durable entries in {args.store}")

    for name in report_names:
        out("")
        out(tables[name].render())
    return 0


def _sweep_status(
    args: argparse.Namespace, matrix: ScenarioMatrix, out: Callable[[str], None]
) -> int:
    """Inspect a distributed sweep's queue/lease/worker state (read-only)."""
    from repro.exec.distrib import CellQueue

    if not args.store:
        out("error: --status requires --store DIR (the queue lives in the store)")
        return 2
    queue = CellQueue(args.store, matrix.cells())
    if not queue.populated():
        out(
            f"error: no queue for this grid under {args.store} "
            f"(campaign {queue.campaign_digest}); start one with "
            "--workers-distributed or `repro worker`"
        )
        return 2
    status = queue.status()
    if args.format == "json":
        out(json.dumps({"command": "sweep", "status": status.to_dict()}, indent=2))
        return 0
    out(status.render())
    return 0


def _sweep_distributed(
    args: argparse.Namespace,
    plan: ExecutionPlan,
    matrix: ScenarioMatrix,
    out: Callable[[str], None],
) -> int:
    """Serve the grid with N cooperating worker processes over one store."""
    if not args.store:
        out("error: --workers-distributed requires --store DIR (the shared queue "
            "and artifacts live in the store)")
        return 2
    if args.workers_distributed < 1:
        out("error: --workers-distributed must be >= 1")
        return 2
    if args.report:
        out("error: --report is not available with --workers-distributed; "
            "inspect cells via --status or tabulate from a follow-up "
            "`repro sweep --store DIR --resume --report ...`")
        return 2
    status = _status_out(args, out)
    store = DiskStore(args.store, resume=True)
    projects = set(args.projects) if args.projects else None
    campaign = StudyCampaign(matrix, plan=plan, projects=projects, store=store)
    status(
        f"Sweeping {len(matrix)} cells with {args.workers_distributed} "
        f"distributed worker(s) over {args.store} ..."
    )
    outcome = campaign.run_distributed(
        workers=args.workers_distributed,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        status_out=status,
    )
    done = outcome.done
    counts = outcome.build_counts
    cell_payload = []
    for cell in matrix.cells():
        record = done.get(outcome.queue.cell_id(cell))
        entry = {
            "cell": cell.label,
            "seed": cell.seed,
            "scale": cell.scale,
            "ablation": cell.ablation.name,
            "worker": record.get("worker") if record else None,
        }
        if record:
            entry.update(
                attempt=record.get("attempt"),
                observations=record.get("observations"),
                providers=record.get("providers"),
                users=record.get("users"),
                prefixes=record.get("prefixes"),
                batches_processed=record.get("batches_processed"),
                process_calls=record.get("process_calls"),
                row_touches=record.get("row_touches"),
                rows_materialised=record.get("rows_materialised"),
            )
        cell_payload.append(entry)
    if args.format == "json":
        out(
            json.dumps(
                {
                    "command": "sweep",
                    "distributed": {
                        "workers": args.workers_distributed,
                        "worker_exits": [
                            {"worker": name, "exitcode": code}
                            for name, code in outcome.worker_exits
                        ],
                        "complete": outcome.complete,
                    },
                    "cells": cell_payload,
                    "build_counts": dict(counts),
                    "status": outcome.status.to_dict(),
                    "store": {
                        "path": args.store,
                        "resume": True,
                        "entries": len(store),
                    },
                },
                indent=2,
            )
        )
        return 0 if outcome.complete else 1
    out("")
    out(f"{'cell':<34} {'obs':>6} {'providers':>9} {'users':>6} {'prefixes':>8} worker")
    for entry in cell_payload:
        out(
            f"{entry['cell']:<34} {entry.get('observations') or '-':>6} "
            f"{entry.get('providers') or '-':>9} {entry.get('users') or '-':>6} "
            f"{entry.get('prefixes') or '-':>8} {entry.get('worker') or '-'}"
        )
    out("")
    out("Fleet-wide stage builds (aggregated worker ledgers):")
    for stage in ("dataset", "dictionary", "usage_stats", "inferred_dictionary",
                  "effective_dictionary", "inference", "stream_pass"):
        out(f"  {stage:<20} {counts.get(stage, 0):>3} build(s) for {len(matrix)} cells")
    out(f"  store                {len(store):>3} durable entries in {args.store}")
    if not outcome.complete:
        out("warning: the grid did not drain cleanly; see `repro sweep --status`")
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """One standalone queue worker: claim cells until the grid drains.

    Several invocations -- on one host or many sharing the store path --
    cooperate on the same grid.  SIGTERM/SIGINT request a graceful stop:
    the worker finishes the cell in hand, explicitly releases any other
    claims it holds (no TTL wait for the rest of the fleet), records its
    ledger and exits 0; a second signal falls back to the default (abrupt)
    behaviour, which lease expiry also survives.
    """
    import signal
    import threading

    from repro.exec.distrib import run_worker

    try:
        plan = _build_plan(args)
        matrix = _build_matrix(args)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    if args.claim_batch < 1:
        out("error: --claim-batch must be >= 1")
        return 2
    projects = set(args.projects) if args.projects else None
    store = DiskStore(args.store, resume=True)
    campaign = StudyCampaign(matrix, plan=plan, projects=projects, store=store)
    stop_event = threading.Event()
    previous = {}

    def _graceful(signum, frame):
        out(f"worker: received {signal.Signals(signum).name}, finishing current "
            "cell and releasing other claims ...")
        stop_event.set()
        # A second signal gets the default handling (abrupt exit; the
        # lease TTL and the store's init sweep cover that path too).
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _graceful)
    ledger = run_worker(
        campaign,
        args.store,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        claim_batch=args.claim_batch,
        max_cells=args.max_cells,
        stop_event=stop_event,
        status_out=out,
    )
    out(
        f"worker {ledger.worker}: {len(ledger.cells)} cell(s) completed, "
        f"builds {dict(sorted(ledger.build_counts.items()))}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Inferring BGP Blackholing Activity in the Internet'",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale",
            choices=tuple(SCALE_PRESETS),
            default="small",
            help="scenario size preset (default: small)",
        )
        sub.add_argument("--seed", type=int, default=23, help="scenario seed")

    def add_spill_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--spill-dir",
            metavar="DIR",
            default=None,
            help="bound resident memory: spill closed observations to "
            "temporaries under DIR and re-stream them when results are "
            "merged (bit-identical output; temporaries are removed)",
        )
        sub.add_argument(
            "--max-resident-observations",
            type=int,
            default=None,
            metavar="N",
            help="per-engine resident-observation cap used with --spill-dir "
            f"(default: {DEFAULT_MAX_RESIDENT_OBSERVATIONS})",
        )

    simulate = subparsers.add_parser(
        "simulate", help="generate a scenario and print its statistics"
    )
    add_common(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    study = subparsers.add_parser(
        "study", help="run the full inference study and print results"
    )
    add_common(study)
    study.add_argument(
        "--report",
        choices=("summary", "tables", "all"),
        default="summary",
        help="what to print (default: summary)",
    )
    study.add_argument(
        "--workers",
        type=int,
        default=1,
        help="number of prefix shards for the inference pass (default: 1, serial)",
    )
    add_spill_args(study)
    study.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json: AnalysisResult payloads; default: text)",
    )
    study.set_defaults(func=_cmd_study)

    report = subparsers.add_parser(
        "report",
        help="compute named figure/table artifacts from the analysis registry",
    )
    add_common(report)
    report.add_argument(
        "names",
        nargs="*",
        metavar="ANALYSIS",
        help="registered analysis names (see --list), e.g. fig2 table1",
    )
    report.add_argument(
        "--list",
        action="store_true",
        help="enumerate the analysis registry and exit",
    )
    report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    report.add_argument(
        "--workers",
        type=int,
        default=1,
        help="number of prefix shards for inference-needing analyses (default: 1)",
    )
    add_spill_args(report)
    report.add_argument(
        "--store",
        metavar="DIR",
        help="durable artifact store (see `sweep --store`): shareable stages "
        "load from DIR when a previous run published them, and new builds "
        "are persisted there",
    )
    report.add_argument(
        "--output",
        metavar="DIR",
        help="write each computed analysis as DIR/<name>.json "
        "(AnalysisResult.to_dict payloads via the artifact serialisers)",
    )
    report.set_defaults(func=_cmd_report)

    def add_matrix_args(sub: argparse.ArgumentParser) -> None:
        # The grid axes, shared by `sweep` and `worker`: a worker joining a
        # sweep's queue must spell out the identical grid (the queue is
        # addressed by the cells' content digest).
        sub.add_argument(
            "--scale",
            action="append",
            choices=tuple(SCALE_PRESETS),
            help="scale preset for the ladder; repeatable (default: small)",
        )
        sub.add_argument(
            "--seed", type=int, default=23, help="first scenario seed (default: 23)"
        )
        sub.add_argument(
            "--seeds",
            type=int,
            default=1,
            help="number of consecutive seeds starting at --seed (default: 1)",
        )
        sub.add_argument(
            "--ablate",
            action="append",
            choices=tuple(ABLATIONS),
            help="ablation variant to include; repeatable (default: baseline)",
        )
        sub.add_argument(
            "--ablate-timeout",
            action="append",
            type=float,
            metavar="SECONDS",
            help="add an ablation variant using the given grouping timeout; "
            "repeatable (named timeout-<seconds>s in the grid)",
        )
        sub.add_argument(
            "--projects",
            action="append",
            choices=PROJECT_CHOICES,
            help="restrict the streams to these collector projects; repeatable "
            "(default: all projects)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="number of prefix shards for the shared execution plan (default: 1)",
        )
        add_spill_args(sub)

    def add_lease_args(sub: argparse.ArgumentParser) -> None:
        from repro.exec.distrib import DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS

        sub.add_argument(
            "--lease-ttl",
            type=float,
            default=DEFAULT_LEASE_TTL,
            metavar="SECONDS",
            help="cell-lease time-to-live: a worker silent this long is presumed "
            f"dead and its cell reclaimed (default: {DEFAULT_LEASE_TTL:g})",
        )
        sub.add_argument(
            "--max-attempts",
            type=int,
            default=DEFAULT_MAX_ATTEMPTS,
            metavar="N",
            help="poison a cell after N abandoned attempts instead of retrying "
            f"it forever (default: {DEFAULT_MAX_ATTEMPTS})",
        )

    sweep = subparsers.add_parser(
        "sweep",
        help="run a scenario campaign (seeds x ablations x scales) with "
        "cross-cell artifact sharing",
    )
    add_matrix_args(sweep)
    sweep.add_argument(
        "--report",
        action="append",
        metavar="ANALYSIS",
        help="registered analysis to tabulate across all cells; repeatable "
        "(see `repro report --list`); prunes the sweep to the stages the "
        "named analyses need instead of materialising every cell",
    )
    sweep.add_argument(
        "--by",
        choices=("cell", "seed", "scale", "ablation"),
        default="cell",
        help="axis labelling the tabulated --report entries (default: cell)",
    )
    sweep.add_argument(
        "--aggregate",
        choices=("mean", "stddev"),
        help="collapse tabulated --report results per --by label (numeric "
        "columns aggregated across the group's cells, e.g. over seeds)",
    )
    sweep.add_argument(
        "--store",
        metavar="DIR",
        help="persist shareable stage artifacts to a content-addressed "
        "store at DIR (created if missing); killed runs leave no partial "
        "entries",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="reuse artifacts already in --store DIR: previously published "
        "grid-invariant stages rebuild zero times (without this flag "
        "pre-existing entries are ignored, but the run still persists)",
    )
    sweep.add_argument(
        "--workers-distributed",
        type=int,
        default=0,
        metavar="N",
        help="serve the grid with N cooperating worker processes over the "
        "--store queue (lease-based claims, shared stages built exactly "
        "once fleet-wide); `repro worker` instances on other hosts may "
        "join the same queue",
    )
    sweep.add_argument(
        "--status",
        action="store_true",
        help="inspect the distributed queue for this grid under --store "
        "(cell states, leases, per-worker ledgers) instead of running",
    )
    add_lease_args(sweep)
    sweep.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    worker = subparsers.add_parser(
        "worker",
        help="join a distributed sweep as one queue worker (multi-host: "
        "point every invocation at the same --store)",
    )
    add_matrix_args(worker)
    worker.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="the shared campaign store holding the cell queue and artifacts",
    )
    add_lease_args(worker)
    worker.add_argument(
        "--worker-id",
        default=None,
        metavar="NAME",
        help="this worker's identity in leases and ledgers "
        "(default: <host>-<pid>)",
    )
    worker.add_argument(
        "--claim-batch",
        type=int,
        default=1,
        metavar="N",
        help="cells to claim per sweep of the queue; claims sharing a stream "
        "identity fuse into one multi-engine pass (default: 1)",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N cells (default: run until the queue "
        "drains)",
    )
    worker.set_defaults(func=_cmd_worker)
    return parser


def main(argv: Sequence[str] | None = None, out: Callable[[str], None] = print) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
