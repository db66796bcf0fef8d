"""Shard-parallel, incremental execution of the inference pass.

:class:`ExecutionPlan` partitions the merged elem stream *by prefix* across
``workers`` shards.  The partition is exact: the engine keys all of its
state on ``(collector, peer, prefix, provider)`` and the grouping layer on
``(prefix[, provider])``, so no state ever crosses a prefix boundary and the
union of the shard results equals the serial result.

There is one pass: a single stream iteration drives one
:class:`~repro.core.inference.BlackholingInferenceEngine` per
:class:`InferenceRequest` (per shard), optionally counting community usage
statistics on the way.  It has two layouts:

* **in-process** -- one pass over the stream demultiplexes elems (or
  columnar batches) to the per-shard engines.  With ``workers=1`` (the
  ``serial`` backend) every engine sees every elem and results are
  bit-identical to the pre-refactor pipeline; with more shards (the
  ``inline`` backend) the per-shard results are merged deterministically.
* **forked** (the ``process`` backend) -- each shard runs in a forked
  worker process over its own filtered view of the stream (non-shard
  messages are skipped *before* elem construction), and the per-shard
  observations, stats and grouping accumulators are merged
  deterministically in the parent.

Three public methods wrap the pass: :meth:`ExecutionPlan.run_inference_many`
is the pass itself, :meth:`ExecutionPlan.run_inference` is the pass with one
request and :meth:`ExecutionPlan.run_usage_stats` the pass with none.
``backend="auto"`` picks ``process`` when fork and more than one CPU are
available, otherwise ``inline``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Iterator

from repro.core.cleaning import CleaningStats
from repro.core.events import BlackholingObservation
from repro.core.grouping import DEFAULT_GROUPING_TIMEOUT, GroupingAccumulator
from repro.core.inference import BlackholingInferenceEngine, EngineStats
from repro.dictionary.inference import CommunityUsageStats
from repro.dictionary.model import BlackholeDictionary
from repro.exec.spill import (
    DEFAULT_MAX_RESIDENT_OBSERVATIONS,
    SpillingObservationSink,
    SpillStats,
)
from repro.gcpause import paused_gc
from repro.netutils.prefixes import Prefix
from repro.stream.batch import ElemBatch, batch_elems, prefix_shard_key
from repro.stream.record import StreamElem
from repro.topology.peeringdb import PeeringDbDataset

__all__ = [
    "ExecutionOutcome",
    "ExecutionPlan",
    "InferenceRequest",
    "observation_sort_key",
    "shard_of",
    "shard_of_key",
    "shard_predicate",
]

#: Knuth multiplicative hashing constant (64-bit golden ratio).
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


def shard_of_key(
    key: int,
    workers: int,
    _mult: int = _HASH_MULTIPLIER,
    _mask: int = _HASH_MASK,
) -> int:
    """The shard of a precomputed :func:`~repro.stream.batch
    .prefix_shard_key` -- the batched form of :func:`shard_of`, finishing
    the multiplicative hash over a batch's prefix-int column."""
    return (((key * _mult) & _mask) >> 32) % workers


def shard_of(prefix: Prefix, workers: int) -> int:
    """The shard a prefix belongs to.

    Pure integer arithmetic on the prefix's value fields
    (:func:`~repro.stream.batch.prefix_shard_key` + Knuth multiplicative
    hash), so the assignment is stable across processes and interpreter
    runs (unlike ``hash()`` on strings, which is salted) and identical to
    the batched shard split over the precomputed key column.
    """
    return shard_of_key(prefix_shard_key(prefix), workers)


#: Lazily-built one-hot ``translate`` tables: ``_SHARD_SELECTORS[s]`` maps
#: byte ``s`` to 1 and everything else to 0.
_SHARD_SELECTORS: list[bytes] = []


def _shard_selector(shard: int) -> bytes:
    while len(_SHARD_SELECTORS) <= shard:
        hot = len(_SHARD_SELECTORS)
        _SHARD_SELECTORS.append(bytes(1 if code == hot else 0 for code in range(256)))
    return _SHARD_SELECTORS[shard]


def _split_batch(
    batch: ElemBatch, workers: int, memo: dict
) -> list[tuple[int, ElemBatch]]:
    """Shard one batch via its prefix-int column, with one index pass per shard.

    Returns the nonempty ``(shard, sub-batch)`` pairs in shard order; the
    per-key shard choice is memoised across batches exactly like the
    per-prefix memo of the elem-at-a-time demultiplex loops (keys collide
    only where shards agree, since the shard is a function of the key).
    Only the *new* keys of a batch run the multiplicative hash; the shard
    column is then a C-level memo gather, each shard's row indices come
    from ``compress`` over a one-hot ``translate`` of that column, and a
    batch whose rows all land on one shard is passed through unsliced.
    """
    keys = batch.prefix_keys
    if not keys:
        return []
    for key in set(keys).difference(memo):
        memo[key] = shard_of_key(key, workers)
    if workers > 255:  # shard ids exceed one byte
        buckets: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            buckets.setdefault(memo[key], []).append(index)
        return [
            (shard, batch.select(indices))
            for shard, indices in sorted(buckets.items())
        ]
    shard_col = bytes(map(memo.__getitem__, keys))
    first = shard_col[0]
    if shard_col.count(first) == len(shard_col):
        return [(first, batch)]
    shards = sorted(set(shard_col))
    # Shard-grouped batches (each shard's rows one contiguous run, as in
    # shard-sorted replays): every sub-batch is a zero-copy column slice.
    # Contiguity per shard is three C-level byte scans, no index lists.
    runs: list[tuple[int, int, int]] | None = []
    for shard in shards:
        start = shard_col.find(shard)
        stop = shard_col.rfind(shard) + 1
        if shard_col.count(shard) != stop - start:
            runs = None
            break
        runs.append((shard, start, stop))
    if runs is not None:
        return [
            (shard, batch.select_run(start, stop)) for shard, start, stop in runs
        ]
    out: list[tuple[int, ElemBatch]] = []
    for shard in shards:
        selector = shard_col.translate(_shard_selector(shard))
        indices = list(compress(range(len(shard_col)), selector))
        out.append((shard, batch.select(indices)))
    return out


def shard_predicate(shard: int, workers: int) -> Callable[[Prefix], bool]:
    """A prefix predicate selecting one shard (for source-level filtering)."""
    return lambda prefix: shard_of(prefix, workers) == shard


def observation_sort_key(observation: BlackholingObservation) -> tuple:
    """Total deterministic order over observations.

    Every field participates, so observations with equal keys are fully
    equal and the merged order of shard results cannot depend on shard
    scheduling.
    """
    end = observation.end_time
    return (
        str(observation.prefix),
        observation.start_time,
        float("inf") if end is None else end,
        observation.project,
        observation.collector,
        observation.peer_ip,
        observation.provider_key,
        str(observation.community),
        -1 if observation.user_asn is None else observation.user_asn,
        observation.detection.value,
        -1 if observation.as_distance is None else observation.as_distance,
        observation.from_table_dump,
        "" if observation.end_cause is None else observation.end_cause.value,
    )


def _merge_counter_dataclass(target, source):
    """Sum integer counter fields of two stats dataclasses into ``target``."""
    for field in dataclasses.fields(source):
        setattr(target, field.name, getattr(target, field.name) + getattr(source, field.name))
    return target


@dataclass
class ExecutionOutcome:
    """Everything one inference execution produced."""

    observations: list[BlackholingObservation]
    engine_stats: EngineStats
    cleaning_stats: CleaningStats
    accumulator: GroupingAccumulator
    usage_stats: CommunityUsageStats | None = None
    #: The single engine of a serial run; ``None`` for sharded runs, which
    #: have one (discarded) engine per shard.
    engine: BlackholingInferenceEngine | None = None
    backend: str = "serial"
    workers: int = 1
    #: Spill accounting when the plan ran with a spill directory;
    #: ``None`` when observations stayed fully resident.
    spill: SpillStats | None = None


@dataclass(frozen=True)
class InferenceRequest:
    """Per-engine knobs of one cell in a fused multi-engine pass.

    :meth:`ExecutionPlan.run_inference_many` drives one stream iteration
    through one engine per request; each request carries exactly the knobs
    that vary between campaign cells sharing a stream (the dictionary and
    the ablation settings), everything stream-wide (end time, PeeringDB,
    usage-statistics collection) stays on the call.
    """

    dictionary: BlackholeDictionary
    enable_bundling: bool = True
    grouping_timeout: float = DEFAULT_GROUPING_TIMEOUT
    on_observation: Callable[[BlackholingObservation], None] | None = None


# --------------------------------------------------------------------------- #
# Fork-based worker plumbing.  The parent deposits the job -- the plan itself,
# the stream and the pass arguments -- in a module global right before
# creating the fork pool; children inherit it via copy-on-write, so neither
# the stream nor the dictionaries are ever pickled.
# --------------------------------------------------------------------------- #
_FORK_JOB: tuple | None = None


def _shard_worker(shard: int) -> tuple:
    """One shard of the forked layout: one engine per request over the
    shard's slice of the stream, filtered at the source.

    Returns per-request ``(accumulator, shard parts, spill stats)`` plus
    the shard's usage statistics; with zero requests the worker only counts
    usage statistics.
    """
    plan, stream, requests, end_time, peeringdb, documented = _FORK_JOB
    cells, usage_stats = plan._feed(
        stream, requests, shards=1, end_time=end_time, peeringdb=peeringdb,
        documented=documented, only_shard=shard,
    )
    return [plan._drain_cell(cell) for cell in cells], usage_stats


def _assemble(
    parts: list[tuple[list[BlackholingObservation], EngineStats, CleaningStats]],
    accumulator: GroupingAccumulator,
    usage_stats: CommunityUsageStats | None,
    spill: SpillStats | None,
    backend: str,
    workers: int,
    engine: BlackholingInferenceEngine | None = None,
) -> ExecutionOutcome:
    """One request's outcome from its per-shard ``(observations, engine
    stats, cleaning stats)`` parts.

    A single part is taken as it is, in the engine's completion order;
    several are summed and put in the deterministic merge order, so the
    result cannot depend on shard scheduling.
    """
    if len(parts) == 1:
        observations, engine_stats, cleaning_stats = parts[0]
    else:
        observations, engine_stats, cleaning_stats = [], EngineStats(), CleaningStats()
        for shard_observations, shard_engine_stats, shard_cleaning in parts:
            observations.extend(shard_observations)
            _merge_counter_dataclass(engine_stats, shard_engine_stats)
            _merge_counter_dataclass(cleaning_stats, shard_cleaning)
        observations.sort(key=observation_sort_key)
    return ExecutionOutcome(
        observations=observations,
        engine_stats=engine_stats,
        cleaning_stats=cleaning_stats,
        accumulator=accumulator,
        usage_stats=usage_stats,
        engine=engine,
        backend=backend,
        workers=workers,
        spill=spill,
    )


def _observing(
    elems: Iterable[StreamElem],
    stats: CommunityUsageStats,
    documented: BlackholeDictionary,
) -> Iterator[StreamElem]:
    """Tee usage-statistics collection into an elem stream (fused pass)."""
    for elem in elems:
        stats.observe(elem, documented)
        yield elem


def _shardable(stream) -> bool:
    return callable(getattr(stream, "elems", None))


class ExecutionPlan:
    """How one pipeline execution is laid out across shards.

    Every public method is a thin wrapper over one private pass that drives
    a single stream iteration through one engine per
    :class:`InferenceRequest` (per shard), optionally counting usage
    statistics on the way: :meth:`run_inference_many` is that pass,
    :meth:`run_inference` is the pass with one request and
    :meth:`run_usage_stats` the pass with none.

    Parameters
    ----------
    workers:
        Number of prefix shards.  ``1`` is the serial path, bit-identical
        to the pre-refactor pipeline.
    batch_size:
        Chunk size for the engines' inner processing loop (``None`` means
        elem-by-elem).
    backend:
        ``"auto"``, ``"inline"`` or ``"process"``; ignored for ``workers=1``.
    spill_dir:
        When set, every engine's closed observations flow through a
        :class:`~repro.exec.spill.SpillingObservationSink` rooted here,
        bounding resident memory on long windows; results are bit-identical
        to the fully-resident run and the temporaries are removed once the
        merge materialises them.
    max_resident_observations:
        Per-engine resident cap used with ``spill_dir``
        (:data:`~repro.exec.spill.DEFAULT_MAX_RESIDENT_OBSERVATIONS` when
        ``None``); setting it without a spill directory is an error.
    """

    def __init__(
        self,
        workers: int = 1,
        batch_size: int | None = None,
        backend: str = "auto",
        spill_dir: str | os.PathLike | None = None,
        max_resident_observations: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None)")
        if backend not in ("auto", "inline", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if max_resident_observations is not None:
            if max_resident_observations < 1:
                raise ValueError("max_resident_observations must be >= 1 (or None)")
            if spill_dir is None:
                raise ValueError("max_resident_observations requires spill_dir")
        self.workers = workers
        self.batch_size = batch_size
        self.backend = backend
        self.spill_dir = spill_dir
        self.max_resident_observations = max_resident_observations

    # ------------------------------------------------------------------ #
    def _new_sink(self, label: str) -> SpillingObservationSink | None:
        """A spill sink for one engine, or ``None`` when spilling is off."""
        if self.spill_dir is None:
            return None
        return SpillingObservationSink(
            self.spill_dir,
            self.max_resident_observations or DEFAULT_MAX_RESIDENT_OBSERVATIONS,
            label=label,
        )

    @staticmethod
    def _elems_of(stream, predicate=None) -> Iterable[StreamElem]:
        return stream.elems(predicate) if _shardable(stream) else stream

    def _batches_of(self, stream, predicate=None) -> Iterable[ElemBatch]:
        """Columnar batches of a stream (native when the stream can batch),
        restricted to the prefixes ``predicate`` accepts when one is given.

        Native ``batches`` is the decoder-to-column path: typed columns
        built straight from the sources, rows lazy; bare elem iterables
        fall back to eager per-elem chunking.
        """
        batches = getattr(stream, "batches", None)
        if callable(batches):
            return batches(self.batch_size, predicate)
        return batch_elems(self._elems_of(stream, predicate), self.batch_size)

    # ------------------------------------------------------------------ #
    def resolved_backend(self) -> str:
        """The backend this plan will actually use.

        Raises a clear error for an explicit ``"process"`` request on a
        platform without the fork start method, instead of failing deep
        inside the worker pool after the stream has been set up.
        """
        if self.workers == 1:
            return "serial"
        fork_available = True
        try:
            multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            fork_available = False
        if self.backend != "auto":
            if self.backend == "process" and not fork_available:  # pragma: no cover
                raise RuntimeError(
                    "the process backend needs the 'fork' start method, "
                    "which this platform does not provide; use backend='inline'"
                )
            return self.backend
        if not fork_available:  # pragma: no cover - platform without fork
            return "inline"
        return "process" if (os.cpu_count() or 1) > 1 else "inline"

    # ------------------------------------------------------------------ #
    # Public wrappers over the one pass
    # ------------------------------------------------------------------ #
    def run_usage_stats(
        self, stream, documented: BlackholeDictionary
    ) -> CommunityUsageStats:
        """Accumulate per-community usage statistics over a stream.

        ``stream`` is a :class:`~repro.stream.merger.BgpStream` (or anything
        with a compatible ``elems(prefix_filter)`` method) or a plain elem
        iterable; a plain iterable is consumed once, serially.
        """
        _, usage_stats = self._run_pass(
            stream, [], end_time=0.0, peeringdb=None, collect_usage_stats=documented
        )
        return usage_stats

    def run_inference(
        self,
        stream,
        dictionary: BlackholeDictionary,
        *,
        end_time: float,
        peeringdb: PeeringDbDataset | None = None,
        enable_bundling: bool = True,
        grouping_timeout: float = DEFAULT_GROUPING_TIMEOUT,
        collect_usage_stats: BlackholeDictionary | None = None,
        on_observation: Callable[[BlackholingObservation], None] | None = None,
    ) -> ExecutionOutcome:
        """Run the blackholing inference over a stream.

        ``collect_usage_stats`` fuses the community-usage pass into the same
        stream iteration (pass the *documented* dictionary to count
        against); the outcome then carries ``usage_stats``, and the old
        second pass over the stream disappears.  ``on_observation`` is
        called for every observation: as it closes on the serial/inline
        backends, after the deterministic merge on the process backend.
        """
        request = InferenceRequest(
            dictionary,
            enable_bundling=enable_bundling,
            grouping_timeout=grouping_timeout,
            on_observation=on_observation,
        )
        outcomes, _ = self._run_pass(
            stream, [request], end_time=end_time, peeringdb=peeringdb,
            collect_usage_stats=collect_usage_stats,
        )
        return outcomes[0]

    def run_inference_many(
        self,
        stream,
        requests: Iterable[InferenceRequest],
        *,
        end_time: float,
        peeringdb: PeeringDbDataset | None = None,
        collect_usage_stats: BlackholeDictionary | None = None,
    ) -> list[ExecutionOutcome]:
        """Run N independent inference engines over ONE stream iteration.

        Each :class:`InferenceRequest` gets its own engine (and, on sharded
        backends, its own engine per shard); every elem of the single pass
        is dispatched to all of them, so an ablation grid over one stream
        costs one iteration's decode/merge work plus N cheap per-elem
        dispatches instead of N full passes.  Per-request outcomes are
        bit-identical to what :meth:`run_inference` would produce for the
        same knobs, and ``collect_usage_stats`` fuses the usage-statistics
        collection into the same pass (the shared
        :class:`~repro.dictionary.inference.CommunityUsageStats` object is
        attached to every outcome).
        """
        requests = list(requests)
        if not requests:
            return []
        outcomes, _ = self._run_pass(
            stream, requests, end_time=end_time, peeringdb=peeringdb,
            collect_usage_stats=collect_usage_stats,
        )
        return outcomes

    # ------------------------------------------------------------------ #
    # The pass
    # ------------------------------------------------------------------ #
    @paused_gc()
    def _run_pass(
        self,
        stream,
        requests: list[InferenceRequest],
        *,
        end_time: float,
        peeringdb: PeeringDbDataset | None,
        collect_usage_stats: BlackholeDictionary | None,
    ) -> tuple[list[ExecutionOutcome], CommunityUsageStats | None]:
        """One stream iteration through one engine per request (per shard).

        Two layouts share :meth:`_feed` and :func:`_assemble`:

        * in-process -- one engine per request and shard, the stream
          demultiplexed by prefix in this process (one shard on the serial
          backend and for a stats-only pass, which has no per-shard state);
        * forked -- one worker per shard, each filtering its slice at the
          source; the parent merges the shard results and only then runs
          the observation callbacks.

        Returns the per-request outcomes and the usage statistics (``None``
        unless ``collect_usage_stats`` names the documented dictionary).
        """
        backend = self.resolved_backend()
        if backend == "process" and not _shardable(stream):
            # A plain iterable cannot be re-filtered per fork worker; fall
            # back to the in-process demultiplex (and label it as such).
            backend = "inline"
        if backend != "process":
            shards = self.workers if backend == "inline" and requests else 1
            cells, usage_stats = self._feed(
                stream, requests, shards=shards, end_time=end_time,
                peeringdb=peeringdb, documented=collect_usage_stats,
            )
            outcomes = []
            for cell in cells:
                accumulator, parts, spill = self._drain_cell(cell)
                engine = None
                if shards == 1:
                    # The serial outcome exposes its engine; re-point its
                    # completed store at the drained list once the sink's
                    # files are gone.
                    _, (engine,), (sink,) = cell
                    if sink is not None:
                        engine.replace_completed(parts[0][0])
                outcomes.append(
                    _assemble(parts, accumulator, usage_stats, spill, backend, shards, engine)
                )
            return outcomes, usage_stats

        forked = [
            dataclasses.replace(request, on_observation=None) for request in requests
        ]
        results = self._map_forked(
            (self, stream, forked, end_time, peeringdb, collect_usage_stats)
        )
        usage_stats = None
        if collect_usage_stats is not None:
            usage_stats = CommunityUsageStats()
            for _, shard_usage in results:
                usage_stats.merge(shard_usage)
        outcomes = []
        for index, request in enumerate(requests):
            accumulator = GroupingAccumulator(timeout=request.grouping_timeout)
            spill = SpillStats() if self.spill_dir is not None else None
            parts = []
            for shard_cells, _ in results:
                shard_accumulator, shard_parts, shard_spill = shard_cells[index]
                parts.extend(shard_parts)
                accumulator.merge(shard_accumulator)
                if spill is not None:
                    spill.merge(shard_spill)
            outcome = _assemble(
                parts, accumulator, usage_stats, spill, "process", self.workers
            )
            if request.on_observation is not None:
                for observation in outcome.observations:
                    request.on_observation(observation)
            outcomes.append(outcome)
        return outcomes, usage_stats

    def _feed(
        self,
        stream,
        requests: list[InferenceRequest],
        *,
        shards: int,
        end_time: float,
        peeringdb: PeeringDbDataset | None,
        documented: BlackholeDictionary | None,
        only_shard: int | None = None,
    ) -> tuple[list[tuple], CommunityUsageStats | None]:
        """Drive the stream through ``shards`` engines per request.

        A fork worker passes ``only_shard`` and reads just that shard's
        slice of the stream.  Returns per-request ``(accumulator, engines,
        sinks)`` with every engine finalised, plus the usage statistics
        counted against ``documented`` (``None`` when it is ``None``).
        """
        predicate = None
        if only_shard is not None:
            predicate = shard_predicate(only_shard, self.workers)
        cells = []
        for index, request in enumerate(requests):
            accumulator = GroupingAccumulator(timeout=request.grouping_timeout)
            if request.on_observation is None:
                completed = accumulator.add
            else:
                def completed(
                    observation: BlackholingObservation,
                    _add=accumulator.add,
                    _notify=request.on_observation,
                ) -> None:
                    _add(observation)
                    _notify(observation)
            sinks = [
                self._new_sink(f"req{index}-shard{shard if only_shard is None else only_shard}")
                for shard in range(shards)
            ]
            engines = [
                BlackholingInferenceEngine(
                    request.dictionary,
                    peeringdb=peeringdb,
                    enable_bundling=request.enable_bundling,
                    on_completed=completed,
                    completed_sink=sink,
                )
                for sink in sinks
            ]
            cells.append((accumulator, engines, sinks))

        usage_stats = CommunityUsageStats() if documented is not None else None
        if self.batch_size is not None:
            # Columnar dispatch: shard each batch once, then hand the same
            # (sub-)batch to every request's engine.
            dispatch = [
                [engines[shard].process_batch for _, engines, _ in cells]
                for shard in range(shards)
            ]
            shard_memo: dict = {}
            for batch in self._batches_of(stream, predicate):
                if usage_stats is not None:
                    usage_stats.observe_batch(batch, documented)
                if shards == 1:
                    for handle in dispatch[0]:
                        handle(batch)
                    continue
                for shard, sub_batch in _split_batch(batch, shards, shard_memo):
                    for handle in dispatch[shard]:
                        handle(sub_batch)
        else:
            elems: Iterable[StreamElem] = self._elems_of(stream, predicate)
            if usage_stats is not None:
                elems = _observing(elems, usage_stats, documented)
            dispatch = [
                [engines[shard].process for _, engines, _ in cells]
                for shard in range(shards)
            ]
            if shards == 1:
                # One tight loop, one dispatch list: every engine sees
                # every elem.
                process = dispatch[0]
                for elem in elems:
                    for handle in process:
                        handle(elem)
            else:
                # Streams repeat the same prefixes constantly, so the
                # per-prefix shard choice is memoised.
                shard_memo = {}
                memo_get = shard_memo.get
                for elem in elems:
                    prefix = elem.prefix
                    shard = memo_get(prefix)
                    if shard is None:
                        shard = shard_memo[prefix] = shard_of(prefix, shards)
                    for handle in dispatch[shard]:
                        handle(elem)
        for _, engines, _ in cells:
            for engine in engines:
                engine.finalise(end_time)
        return cells, usage_stats

    def _drain_cell(self, cell: tuple) -> tuple:
        """One request's ``(accumulator, parts, spill stats)``: its per-shard
        ``(observations, engine stats, cleaning stats)`` parts, with every
        spill sink folded into the spill stats and removed."""
        accumulator, engines, sinks = cell
        spill = SpillStats() if self.spill_dir is not None else None
        parts = []
        for engine, sink in zip(engines, sinks):
            observations = engine.observations()
            if sink is not None:
                spill.absorb(sink)
                sink.cleanup()
            parts.append((observations, engine.stats, engine.cleaner.stats))
        return accumulator, parts, spill

    def _map_forked(self, job: tuple) -> list:
        """Run :func:`_shard_worker` over every shard index in a fork pool."""
        global _FORK_JOB
        context = multiprocessing.get_context("fork")
        _FORK_JOB = job
        try:
            with context.Pool(processes=self.workers) as pool:
                return pool.map(_shard_worker, range(self.workers))
        finally:
            _FORK_JOB = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        spill = ""
        if self.spill_dir is not None:
            spill = (
                f", spill_dir={str(self.spill_dir)!r}, "
                f"max_resident_observations={self.max_resident_observations}"
            )
        return (
            f"ExecutionPlan(workers={self.workers}, batch_size={self.batch_size}, "
            f"backend={self.backend!r}{spill})"
        )
