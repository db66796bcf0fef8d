"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each workload turns ``--seed`` into inputs (set-up, timed separately),
computes an untimed reference, and then times an op that calls the same
library functions a CLI command calls -- argument parsing and printing are
left out.  Every op's output is checked against the reference, and, at the
seed golden.json was recorded for, against the golden digests too, so a
semantic drift fails even when the reference drifts with it.

**What the seed varies.**  The seed draws the attack history (the
:class:`~repro.attacks.timeline.AttackTimelineConfig` of the preset at that
seed); the Internet itself -- topology, documentation corpus, collector
platforms and the operator/churn random streams -- stays the canonical
seed-23 scenario.  Re-drawing the topology changes an input's size by up
to 3.7x between seeds (87k to 326k elems for one study window), which
would swamp every timing; a new attack history changes what is
blackholed, when and where, on a fixed network.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.analysis.pipeline import StudyPipeline
from repro.core.inference import BlackholingInferenceEngine
from repro.dictionary.builder import DictionaryBuilder
from repro.exec.campaign import ScenarioMatrix, StudyCampaign
from repro.exec.distrib import observations_digest
from repro.exec.identity import fingerprint
from repro.exec.store import DiskStore
from repro.mrt import writer as mrt_writer
from repro.stream.source import MrtSource
from repro.topology.generator import TopologyConfig
from repro.workload.config import ScenarioConfig
from repro.workload.simulation import ScenarioSimulator

__all__ = ["CANONICAL_SEED", "STUDY_REPORTS", "WORKLOADS", "Workload", "observation_digest"]

#: The seed the canonical Internet is drawn from (and golden.json is for).
CANONICAL_SEED = 23
#: The analyses of ``repro study --report all --format json``.
STUDY_REPORTS = ("table3_summary", "table1", "table2", "table3", "table4")
#: The sweep's ablation axis (the paper's three headline variants).
FLEET_ABLATIONS = ("baseline", "no-bundling", "inferred-dictionary")
#: Stages a warm store must not rebuild on resume.
WARM_STAGES = ("dictionary", "usage_stats", "inferred_dictionary", "effective_dictionary")


def scenario(seed: int, size: str, **changes) -> ScenarioConfig:
    """The canonical scenario of a preset, with the attack history of ``seed``.

    ``size`` is ``bench`` (what the benchmark measures) or ``small`` (the
    self-test's ScenarioConfig.small-sized variant).
    """
    preset = ScenarioConfig.bench if size == "bench" else ScenarioConfig.small
    return dataclasses.replace(preset(CANONICAL_SEED), attacks=preset(seed).attacks, **changes)


# --------------------------------------------------------------------------- #
# Output digests
# --------------------------------------------------------------------------- #
def _observation_fields(observation, with_times: bool) -> tuple:
    fields = (
        str(observation.prefix), observation.project, observation.collector,
        observation.peer_ip, observation.peer_as, observation.provider_key,
        observation.provider_asn, observation.ixp_name, observation.user_asn,
        str(observation.community), observation.detection.value,
        observation.as_distance, observation.from_table_dump,
        None if observation.end_cause is None else observation.end_cause.value,
    )
    if with_times:
        fields += (observation.start_time, observation.end_time)
    return fields


def observation_digest(observations, with_times: bool = True) -> str:
    """Order-insensitive digest of an observation list.

    ``with_times=False`` digests the observation keys only: MRT stores
    update timestamps to the microsecond, so an MRT-fed study's times
    drift below a microsecond from the in-memory study's.
    """
    lines = sorted(repr(_observation_fields(o, with_times)) for o in observations)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def payload_digest(payload) -> str:
    """Digest of a JSON-serialisable analysis payload."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:32]


def _dataset_elems(dataset) -> int:
    return sum(len(source) for source in dataset.sources)


def _tagged_share(stats_list) -> float:
    tagged = sum(stats.tagged_announcements for stats in stats_list)
    return tagged / max(sum(stats.elems_processed for stats in stats_list), 1)


def _engine_counts(result) -> dict[str, int]:
    """One study result's engine counters plus its observation count."""
    counts = dataclasses.asdict(result.context.get("engine_stats"))
    counts["observations"] = len(result.observations)
    return counts


def _context_counts(context) -> dict[str, int]:
    counts = dict(context.build_counts)
    counts["stream_pass"] = context.stream_passes
    return counts


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class Workload:
    """One workload; subclasses fill in the hooks.

    ``setup`` returns the state every other hook receives.  ``reference``
    returns JSON-safe facts about the correct output: the digests
    golden.json records, ``elems`` (input elems the op's engines consume),
    ``observations`` and ``tagged_share``.  ``op`` is the timed operation;
    ``workdir`` is a private scratch directory the harness creates and
    removes.
    """

    name = ""
    #: Timed ops a run makes at least, even past its time budget.
    min_ops = 2
    #: Work units one output observation counts for; an input elem the
    #: op's engines consume counts for one.
    observation_units = 1

    def setup(self, seed: int, size: str, workdir: Path):
        raise NotImplementedError

    def reference(self, state) -> dict:
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed per-op preparation (a fresh store for a cold run)."""

    def op(self, state):
        raise NotImplementedError

    def golden_view(self, output) -> dict:
        """The digests of one op's output, as the reference and golden.json hold them."""
        raise NotImplementedError

    def check(self, state, output) -> list[str]:
        """Problems visible in one op's output alone (its digests are
        compared with the reference and golden.json by the harness)."""
        return []

    def phases(self, output) -> dict[str, float]:
        """Wall seconds of the named parts of one op, when it has parts."""
        return {}

    def input_elems(self, state) -> int:
        """Elems in one full pass over every distinct input dataset."""
        raise NotImplementedError

    def engine_stats(self, output) -> list[dict]:
        """The engine counters (and observations) of the op's inference."""
        raise NotImplementedError

    def build_counts(self, output) -> dict[str, int]:
        """Stage-build tallies of the op (``stream_pass`` included)."""
        raise NotImplementedError

    def store_bytes(self, state) -> int:
        return 0


class StudyWorkload(Workload):
    """``repro study --report all --format json`` over one scenario."""

    def __init__(self, name: str, changes: dict[str, dict]) -> None:
        self.name = name
        self.changes = changes

    def setup(self, seed, size, workdir):
        return ScenarioSimulator(scenario(seed, size, **self.changes[size])).generate()

    def reference(self, dataset) -> dict:
        # The engine run directly over the merged stream: no plan, no
        # stages, no campaign -- what the pipeline must reproduce.
        engine = BlackholingInferenceEngine(
            DictionaryBuilder(dataset.corpus).build(), peeringdb=dataset.topology.peeringdb
        )
        engine.run(dataset.bgp_stream())
        observations = engine.finalise(dataset.end)
        return {
            "observations": len(observations),
            "digest": observation_digest(observations),
            "elems": _dataset_elems(dataset),
            "tagged_share": _tagged_share([engine.stats]),
        }

    def op(self, dataset):
        result = StudyPipeline(dataset).run()
        payload = {name: res.to_dict() for name, res in result.analyses(STUDY_REPORTS).items()}
        return result, payload

    def golden_view(self, output) -> dict:
        result, _ = output
        return {
            "observations": len(result.observations),
            "digest": observation_digest(result.observations),
        }

    def check(self, dataset, output) -> list[str]:
        payload = output[1]
        if sorted(payload) != sorted(STUDY_REPORTS) or not all(payload.values()):
            return [f"report payload incomplete: {sorted(payload)}"]
        return []

    def input_elems(self, dataset) -> int:
        return _dataset_elems(dataset)

    def engine_stats(self, output) -> list[dict]:
        return [_engine_counts(output[0])]

    def build_counts(self, output) -> dict[str, int]:
        return _context_counts(output[0].context)


@dataclasses.dataclass
class _MrtState:
    memory: object  # the simulated in-memory dataset
    mrt: object  # the same dataset with MrtSource streams


class MrtWorkload(Workload):
    """``repro report table3`` over collector feeds encoded as MRT."""

    name = "mrt-ingest"

    def __init__(self, changes: dict[str, dict]) -> None:
        self.changes = changes

    def setup(self, seed, size, workdir):
        dataset = ScenarioSimulator(scenario(seed, size, **self.changes[size])).generate()
        sources = [
            MrtSource(
                source.project,
                source.collector,
                rib_bytes=mrt_writer.write_rib(dataset.ribs[source.collector])
                if source.collector in dataset.ribs else None,
                update_bytes=mrt_writer.write_updates(
                    elem.to_message() for elem in source.update_stream()
                ),
            )
            for source in dataset.sources
        ]
        return _MrtState(dataset, dataclasses.replace(dataset, sources=sources))

    def reference(self, state) -> dict:
        # The same analysis over the in-memory feeds the archives encode.
        result = StudyPipeline(state.memory).result()
        reference = self.golden_view((result, result.analysis("table3").to_dict()))
        reference["elems"] = _dataset_elems(state.memory)
        reference["tagged_share"] = _tagged_share([result.context.get("engine_stats")])
        return reference

    def op(self, state):
        result = StudyPipeline(state.mrt).result()
        return result, result.analysis("table3").to_dict()

    def golden_view(self, output) -> dict:
        result, payload = output
        return {
            "observations": len(result.observations),
            "keys": observation_digest(result.observations, with_times=False),
            "table3": payload_digest(payload),
        }

    def input_elems(self, state) -> int:
        return _dataset_elems(state.memory)

    def engine_stats(self, output) -> list[dict]:
        return [_engine_counts(output[0])]

    def build_counts(self, output) -> dict[str, int]:
        return _context_counts(output[0].context)


class CanonicalMatrix(ScenarioMatrix):
    """A ``small``-scale sweep grid whose seed axis redraws attacks only.

    ``ScenarioConfig.small(seed)`` would redraw the topology too, and the
    small topology's size swings the grid's input between seeds.
    """

    def __init__(self, seeds, ablations, **changes) -> None:
        super().__init__(seeds=seeds, ablations=ablations, scales=("small",))
        self.changes = changes

    def cells(self):
        return tuple(
            dataclasses.replace(cell, config=scenario(cell.seed, "small", **self.changes))
            for cell in super().cells()
        )


@dataclasses.dataclass
class _FleetState:
    matrix: ScenarioMatrix
    datasets: dict
    workdir: Path
    store: Path | None = None

    def factory(self, config):
        return self.datasets[fingerprint(config)]


@dataclasses.dataclass
class _FleetRun:
    """One fleet-resume op: the cold fleet's outcome, the warm results, and
    the wall seconds of each half."""

    outcome: object
    results: object
    run_s: float
    resume_s: float


class FleetResumeWorkload(Workload):
    """``repro sweep --workers-distributed 2`` into a fresh store, then
    ``repro sweep --store DIR --resume`` over it."""

    name = "fleet-resume"
    # The cold fleet's wall time is its slower worker's, and which worker
    # leases which cell changes from op to op: at equal host speed one op
    # varies by 12% (coefficient of variation) with two workers and by 1%
    # with one.  Only more ops steady the median.
    min_ops = 4
    # Every observation is pickled into the store by a cold worker and
    # read back by the warm resume, while an elem is streamed once per
    # fused pass however many cells share it.  Fitted over seeds 1-10, an
    # observation costs 4.6 elems (10 us per elem, 46 us per observation,
    # residuals within 2%); at one unit each, time per unit followed the
    # seed's observation share and spread 9% between quartiles.
    observation_units = 4

    def setup(self, seed, size, workdir):
        if size == "bench":
            matrix = CanonicalMatrix((seed, seed + 1), FLEET_ABLATIONS)
        else:
            # One day, one seed, a documented and an inferred-dictionary
            # cell: still two fused waves over a store.
            matrix = CanonicalMatrix(
                (seed,), ("baseline", "inferred-dictionary"), end_date="2016-09-19"
            )
        datasets = {}
        for cell in matrix.cells():
            key = fingerprint(cell.config)
            if key not in datasets:
                datasets[key] = ScenarioSimulator(cell.config).generate()
        return _FleetState(matrix, datasets, workdir)

    def prepare(self, state) -> None:
        if state.store is not None:
            shutil.rmtree(state.store, ignore_errors=True)
        state.store = Path(tempfile.mkdtemp(prefix="store-", dir=state.workdir))

    def reference(self, state) -> dict:
        results = StudyCampaign(state.matrix, dataset_factory=state.factory).run()
        return {
            "cells": [observations_digest(result.observations) for result in results],
            "elems": sum(_dataset_elems(result.dataset) for result in results),
            "observations": sum(len(result.observations) for result in results),
            "tagged_share": _tagged_share(
                [result.context.get("engine_stats") for result in results]
            ),
        }

    def op(self, state):
        clock = time.perf_counter
        start = clock()
        outcome = StudyCampaign(state.matrix, dataset_factory=state.factory).run_distributed(
            workers=2, store=DiskStore(state.store, resume=True)
        )
        middle = clock()
        results = StudyCampaign(
            state.matrix, dataset_factory=state.factory, store=DiskStore(state.store, resume=True)
        ).run()
        return _FleetRun(outcome, results, middle - start, clock() - middle)

    def golden_view(self, run) -> dict:
        done = run.outcome.done
        return {
            "cells": [
                (done.get(run.outcome.queue.cell_id(cell)) or {}).get("observations_digest")
                for cell in run.outcome.queue.cells
            ]
        }

    def check(self, state, run) -> list[str]:
        problems = []
        if not run.outcome.complete:
            problems.append(f"fleet incomplete: {run.outcome.status.counts}")
        failed = [(name, code) for name, code in run.outcome.worker_exits if code != 0]
        if failed:
            problems.append(f"workers exited non-zero: {failed}")
        resumed = [observations_digest(result.observations) for result in run.results]
        if resumed != self.golden_view(run)["cells"]:
            problems.append("warm resume differs from the cold fleet")
        rebuilt = {stage: run.results.build_counts.get(stage, 0) for stage in WARM_STAGES}
        if any(rebuilt.values()):
            problems.append(f"warm store rebuilt shared stages: {rebuilt}")
        return problems

    def phases(self, run) -> dict[str, float]:
        return {"run_s": run.run_s, "resume_s": run.resume_s}

    def input_elems(self, state) -> int:
        return sum(_dataset_elems(dataset) for dataset in state.datasets.values())

    def engine_stats(self, run) -> list[dict]:
        # The cold workers' counters come from their done records (their
        # spans die with the forked processes, their records do not).
        keys = (
            "process_calls", "batches_processed", "row_touches", "rows_materialised",
            "observations",
        )
        cold = [{key: record.get(key) or 0 for key in keys} for record in run.outcome.done.values()]
        return cold + [_engine_counts(result) for result in run.results]

    def build_counts(self, run) -> dict[str, int]:
        return dict(Counter(run.outcome.build_counts) + Counter(run.results.build_counts))

    def store_bytes(self, state) -> int:
        return sum(path.stat().st_size for path in state.store.rglob("*") if path.is_file())


#: The benchmark's workloads, in run order (BENCHMARK.json says why each).
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        StudyWorkload("study-dense", {
            "bench": dict(topology=TopologyConfig.small(seed=CANONICAL_SEED),
                          end_date="2016-10-16"),
            "small": dict(end_date="2016-09-20"),
        }),
        StudyWorkload("study-sparse", {
            "bench": dict(end_date="2016-09-08", background_updates_per_day=4000),
            "small": dict(end_date="2016-09-20", background_updates_per_day=400),
        }),
        MrtWorkload({
            "bench": dict(end_date="2016-09-08"),
            "small": dict(end_date="2016-09-20", background_updates_per_day=200),
        }),
        FleetResumeWorkload(),
    )
}
