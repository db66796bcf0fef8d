"""Scenario campaigns: shared-artifact sweeps across seeds, ablations, scales.

The paper's headline results are comparative -- ablations (bundling on/off,
documented vs. inferred dictionary), seed sensitivity, window scaling -- and
most of the work those comparisons pay for is invariant across the grid: the
scenario simulation (topology, corpus, BGP feeds), the documented dictionary
and the community-usage statistics only depend on the scenario inputs, not
on the ablation knobs.

This module runs such grids without the redundancy:

* :class:`ScenarioMatrix` declares the grid -- a base
  :class:`~repro.workload.config.ScenarioConfig` plus axes for seeds,
  ablation variants (:class:`AblationSpec`) and scale presets -- and expands
  it into deterministically ordered :class:`ScenarioCell`\\ s;
* :class:`StudyCampaign` turns every cell into a
  :class:`~repro.exec.context.PipelineContext` attached to one shared
  :class:`~repro.exec.plan.ExecutionPlan` and one cross-context
  :class:`~repro.exec.context.ArtifactCache`, simulating each distinct
  scenario configuration once and computing each content-addressed stage
  once per distinct input set;
* :class:`CampaignResult` holds the per-cell lazy
  :class:`~repro.analysis.pipeline.StudyResult` facades in matrix order,
  with selectors over the axes; :meth:`CampaignResult.tabulate` computes one
  registered analysis (:mod:`repro.analysis.registry`) across every cell
  into a :class:`CampaignTable`.

On a one-core box the win is the shared work *and* the fused passes:
:meth:`StudyCampaign.run` groups cells by stream identity and drives each
group's engines through one multi-engine stream iteration
(:meth:`~repro.exec.plan.ExecutionPlan.run_inference_many`), so a
three-variant ablation sweep pays for one simulation, one dictionary build,
and one stream pass feeding all documented-dictionary engines (plus one
more pass when inferred-dictionary cells are present) instead of three of
everything.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.core.grouping import DEFAULT_GROUPING_TIMEOUT
from repro.exec.context import ArtifactCache, PipelineContext
from repro.exec.identity import fingerprint
from repro.exec.plan import ExecutionPlan, InferenceRequest
from repro.exec.stages import (
    DEFAULT_STAGES,
    Stage,
    inference_artifacts,
    stream_identity,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.store import ArtifactStore
from repro.workload.config import ScenarioConfig
from repro.workload.simulation import ScenarioDataset, ScenarioSimulator

__all__ = [
    "ABLATIONS",
    "BASELINE",
    "INFERRED_DICTIONARY",
    "NO_BUNDLING",
    "AblationSpec",
    "CampaignResult",
    "CampaignTable",
    "ScenarioCell",
    "ScenarioMatrix",
    "StudyCampaign",
]


@dataclass(frozen=True)
class AblationSpec:
    """One point on the ablation axis: a named set of pipeline knobs."""

    name: str
    enable_bundling: bool = True
    use_inferred_dictionary: bool = False
    grouping_timeout: float = DEFAULT_GROUPING_TIMEOUT


#: The paper's three headline variants.
BASELINE = AblationSpec("baseline")
NO_BUNDLING = AblationSpec("no-bundling", enable_bundling=False)
INFERRED_DICTIONARY = AblationSpec("inferred-dictionary", use_inferred_dictionary=True)

#: Named ablation registry (CLI ``--ablate`` values).
ABLATIONS: dict[str, AblationSpec] = {
    spec.name: spec for spec in (BASELINE, NO_BUNDLING, INFERRED_DICTIONARY)
}


def _resolve_ablation(spec: AblationSpec | str) -> AblationSpec:
    if isinstance(spec, AblationSpec):
        return spec
    try:
        return ABLATIONS[spec]
    except KeyError:
        raise ValueError(
            f"unknown ablation {spec!r}; known: {sorted(ABLATIONS)}"
        ) from None


@dataclass(frozen=True, eq=False)
class ScenarioCell:
    """One fully resolved grid point: scenario config + ablation knobs."""

    index: int
    seed: int
    scale: str | None
    ablation: AblationSpec
    config: ScenarioConfig

    @property
    def label(self) -> str:
        parts = [] if self.scale is None else [self.scale]
        parts += [f"seed{self.seed}", self.ablation.name]
        return "/".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ScenarioCell({self.label!r})"


class ScenarioMatrix:
    """A declarative sweep grid over seeds, ablations and scale presets.

    ``base`` seeds the grid; the ``seeds`` axis re-seeds it (default: the
    base seed only) and the ``ablations`` axis varies the pipeline knobs
    (specs or registry names; default: baseline only).  The ``scales`` axis
    instead draws each cell's config from the named
    :meth:`~repro.workload.config.ScenarioConfig.for_scale` presets; it is
    mutually exclusive with an explicit ``base``, which it would otherwise
    silently replace.

    Expansion order is deterministic -- scale-major, then seed, then
    ablation -- so cell indices and campaign results are reproducible.
    """

    def __init__(
        self,
        base: ScenarioConfig | None = None,
        *,
        seeds: Iterable[int] | None = None,
        ablations: Iterable[AblationSpec | str] = (BASELINE,),
        scales: Iterable[str] | None = None,
    ) -> None:
        if base is not None and scales is not None:
            raise ValueError(
                "pass either a base config or a scales axis, not both "
                "(the scale presets replace the base config entirely)"
            )
        self.base = base if base is not None else ScenarioConfig()
        self.seeds = tuple(seeds) if seeds is not None else (self.base.seed,)
        self.ablations = tuple(_resolve_ablation(spec) for spec in ablations)
        self.scales = tuple(scales) if scales is not None else None
        if not self.seeds:
            raise ValueError("the seeds axis must not be empty")
        if not self.ablations:
            raise ValueError("the ablations axis must not be empty")
        if self.scales is not None and not self.scales:
            raise ValueError("the scales axis must not be empty (or pass None)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds in the matrix")
        if len(set(spec.name for spec in self.ablations)) != len(self.ablations):
            raise ValueError("duplicate ablation names in the matrix")
        if self.scales is not None and len(set(self.scales)) != len(self.scales):
            raise ValueError("duplicate scales in the matrix")

    def __len__(self) -> int:
        scales = 1 if self.scales is None else len(self.scales)
        return scales * len(self.seeds) * len(self.ablations)

    def cells(self) -> tuple[ScenarioCell, ...]:
        """The grid points, in deterministic scale/seed/ablation order."""
        cells: list[ScenarioCell] = []
        for scale in self.scales or (None,):
            for seed in self.seeds:
                if scale is not None:
                    config = ScenarioConfig.for_scale(scale, seed=seed)
                elif seed == self.base.seed:
                    # Keep the caller's config verbatim: with_seed() would
                    # re-derive the nested topology/attack seeds and silently
                    # rewrite a base with independently chosen ones.
                    config = self.base
                else:
                    config = self.base.with_seed(seed)
                for ablation in self.ablations:
                    cells.append(
                        ScenarioCell(
                            index=len(cells),
                            seed=seed,
                            scale=scale,
                            ablation=ablation,
                            config=config,
                        )
                    )
        return tuple(cells)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ScenarioMatrix(seeds={self.seeds}, "
            f"ablations={tuple(a.name for a in self.ablations)}, "
            f"scales={self.scales})"
        )


def _aggregate_value(values: list, aggregate: str, *, context: str | None = None):
    """One aggregated column value: numeric statistics, else consensus.

    Non-numeric values must agree across the group when ``context`` names
    the cell (row columns): rows are aligned *positionally*, so a
    disagreeing identifying column (a country, a provider name) means the
    grouped cells ordered their rows differently and a numeric mean would
    mix unrelated rows -- refuse instead of emitting junk.  Without
    ``context`` (the per-result ``meta`` scalars, which carry no alignment
    role) disagreement degrades to ``None``.
    """
    if values and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        if aggregate == "mean":
            return statistics.fmean(values)
        return statistics.stdev(values) if len(values) > 1 else 0.0
    first = values[0] if values else None
    if all(v == first for v in values):
        return first
    if context is not None:
        raise ValueError(
            f"cannot aggregate {context}: the grouped cells disagree on its "
            f"value ({values!r}), so their rows do not align positionally; "
            "aggregate over an axis the analysis's rows are invariant to, "
            "or tabulate per cell"
        )
    return None


def _aggregate_results(name: str, title: str, results: list, aggregate: str):
    """Collapse one group's :class:`AnalysisResult`\\ s into a single one.

    Aggregation is positional over ``row_dicts()`` (every cell of a group
    computes the same analysis over the same grid point modulo the
    collapsed axes, so rows line up); differing row counts -- or
    disagreeing non-numeric cells at the same position -- mean the cells
    genuinely disagree on the row set and aggregation is refused.
    """
    from repro.analysis.registry import AnalysisResult

    if not results:
        raise ValueError(f"cannot aggregate {name!r}: the group has no cells")
    row_sets = [result.row_dicts() for result in results]
    counts = {len(rows) for rows in row_sets}
    if len(counts) > 1:
        raise ValueError(
            f"cannot aggregate {name!r}: grouped cells produced differing "
            f"row counts {sorted(counts)}; aggregate over an axis the "
            "analysis's rows are invariant to, or tabulate per cell"
        )
    rows = tuple(
        {
            key: _aggregate_value(
                [rows[index].get(key) for rows in row_sets],
                aggregate,
                context=f"{name!r} row {index} column {key!r}",
            )
            for key in row_sets[0][index]
        }
        for index in range(counts.pop() if counts else 0)
    )
    meta = {
        key: _aggregate_value([result.meta.get(key) for result in results], aggregate)
        for key in results[0].meta
    }
    # Aggregated rows are plain field dicts, so the headers become the
    # field names -- that keeps render()'s mapping lookup self-consistent.
    headers = tuple(rows[0]) if rows else tuple(results[0].headers)
    return AnalysisResult(
        name=name,
        title=f"{title} [{aggregate} over {len(results)} cell(s)]",
        headers=headers,
        rows=rows,
        meta=meta,
    )


@dataclass(frozen=True)
class CampaignTable:
    """One registered analysis computed across every cell of a campaign.

    ``entries`` pairs each :class:`ScenarioCell` with its grouping label
    (chosen by :meth:`CampaignResult.tabulate`'s ``by`` axis) and its
    :class:`~repro.analysis.registry.AnalysisResult`, in matrix order.

    For an aggregated table (``tabulate(..., aggregate=...)``) there is one
    entry per distinct ``by`` label instead of one per cell: the result is
    the cross-cell aggregate over that label's group and the entry's cell
    is the group's first (representative) member; ``aggregate`` records the
    statistic (``None`` for plain per-cell tables).
    """

    analysis: str
    title: str
    by: str
    entries: tuple[tuple[ScenarioCell, str, object], ...]
    aggregate: str | None = None

    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, label, _ in self.entries)

    def results(self) -> tuple[object, ...]:
        return tuple(result for _, _, result in self.entries)

    def to_dict(self) -> dict[str, object]:
        """Machine-readable form: per-cell axis values plus result dicts."""
        return {
            "analysis": self.analysis,
            "title": self.title,
            "by": self.by,
            "aggregate": self.aggregate,
            "cells": [
                {
                    "cell": cell.label,
                    "group": label,
                    "seed": cell.seed,
                    "scale": cell.scale,
                    "ablation": cell.ablation.name,
                    "result": result.to_dict(),
                }
                for cell, label, result in self.entries
            ],
        }

    def render(self) -> str:
        """Per-cell (or per-group, when aggregated) text tables."""
        blocks = []
        for cell, label, result in self.entries:
            if self.aggregate is not None or label == cell.label:
                heading = label
            else:
                heading = f"{label} ({cell.label})"
            blocks.append(f"=== {heading} ===\n{result.render()}")
        return "\n\n".join(blocks)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CampaignTable({self.analysis!r}, by={self.by!r}, "
            f"aggregate={self.aggregate!r}, cells={len(self.entries)})"
        )


class CampaignResult:
    """Per-cell lazy study results, in deterministic matrix order."""

    def __init__(self, cells: Sequence[ScenarioCell], results: Sequence, cache: ArtifactCache) -> None:
        self._cells = tuple(cells)
        self._results = tuple(results)
        self.cache = cache

    # ------------------------------------------------------------------ #
    @property
    def cells(self) -> tuple[ScenarioCell, ...]:
        return self._cells

    @property
    def build_counts(self):
        """Stage-build tallies across the whole campaign (includes ``dataset``)."""
        return self.cache.build_counts

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator:
        return iter(self._results)

    def __getitem__(self, index: int):
        return self._results[index]

    def items(self) -> Iterator[tuple[ScenarioCell, object]]:
        return iter(zip(self._cells, self._results))

    def labels(self) -> tuple[str, ...]:
        return tuple(cell.label for cell in self._cells)

    def get(
        self,
        *,
        seed: int | None = None,
        scale: str | None = None,
        ablation: AblationSpec | str | None = None,
    ):
        """The unique cell result matching the given axis values."""
        wanted = None if ablation is None else _resolve_ablation(ablation).name
        matches = [
            result
            for cell, result in self.items()
            if (seed is None or cell.seed == seed)
            and (scale is None or cell.scale == scale)
            and (wanted is None or cell.ablation.name == wanted)
        ]
        if not matches:
            raise KeyError(
                f"no cell matches seed={seed!r}, scale={scale!r}, ablation={ablation!r}"
            )
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} cells match seed={seed!r}, scale={scale!r}, "
                f"ablation={ablation!r}; narrow the selection"
            )
        return matches[0]

    def tabulate(
        self, name: str, *, by: str = "cell", aggregate: str | None = None
    ) -> CampaignTable:
        """Compute one registered analysis across every cell of the sweep.

        ``name`` is an analysis-registry name (``"table2"``, ``"fig2"``,
        ...); ``by`` labels each entry by an axis -- ``"cell"`` (full label,
        default), ``"seed"``, ``"scale"`` or ``"ablation"``.  Cells resolve
        only the analysis's declared needs through their contexts, and the
        campaign's shared :class:`~repro.exec.context.ArtifactCache` makes
        grid-invariant stages compute once across the whole table.

        ``aggregate`` (``"mean"`` or ``"stddev"``) collapses the per-cell
        results into one table per distinct ``by`` label: numeric columns
        are aggregated positionally across the group's cells (e.g.
        ``by="ablation"`` averages each ablation's rows over the seed
        axis), non-numeric columns keep their value when the group agrees
        on it and become ``None`` otherwise.  ``stddev`` is the sample
        standard deviation (``0.0`` for single-cell groups).
        """
        from repro.analysis import registry

        spec = registry.get(name)
        if by not in ("cell", "seed", "scale", "ablation"):
            raise ValueError(
                f"unknown axis {by!r}; pick one of cell, seed, scale, ablation"
            )
        if aggregate not in (None, "mean", "stddev"):
            raise ValueError(
                f"unknown aggregate {aggregate!r}; pick mean or stddev (or None)"
            )

        def label(cell: ScenarioCell) -> str:
            if by == "seed":
                return f"seed{cell.seed}"
            if by == "scale":
                return cell.scale or "default"
            if by == "ablation":
                return cell.ablation.name
            return cell.label

        entries = tuple(
            (cell, label(cell), spec.run(result)) for cell, result in self.items()
        )
        if aggregate is None:
            return CampaignTable(
                analysis=spec.name, title=spec.title, by=by, entries=entries
            )
        groups: dict[str, list[tuple[ScenarioCell, object]]] = {}
        for cell, group_label, result in entries:
            groups.setdefault(group_label, []).append((cell, result))
        return CampaignTable(
            analysis=spec.name,
            title=spec.title,
            by=by,
            aggregate=aggregate,
            entries=tuple(
                (
                    members[0][0],
                    group_label,
                    _aggregate_results(
                        spec.name,
                        spec.title,
                        [result for _, result in members],
                        aggregate,
                    ),
                )
                for group_label, members in groups.items()
            ),
        )

    def run(self) -> "CampaignResult":
        """Materialise every cell (shared stages first) and return self."""
        for result in self._results:
            result.materialise()
        return self

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CampaignResult(cells={list(self.labels())})"


class StudyCampaign:
    """Runs a :class:`ScenarioMatrix` with cross-cell artifact sharing.

    All cells share one :class:`~repro.exec.plan.ExecutionPlan` (stage work
    is scheduled through its worker pool) and one
    :class:`~repro.exec.context.ArtifactCache`.  Each distinct scenario
    configuration is simulated once (``dataset_factory`` defaults to
    :class:`~repro.workload.simulation.ScenarioSimulator`), and each stage
    with a content-addressed cache identity is built once per distinct
    input set, no matter how many cells request it.

    ``store`` selects the cache's backend
    (:class:`~repro.exec.store.ArtifactStore`; default: in-memory).  With a
    warm :class:`~repro.exec.store.DiskStore` the campaign *resumes*: every
    shareable stage a previous process published loads from disk instead of
    rebuilding, and because the usage statistics are already durable the
    fused scheduler collapses even a mixed documented/inferred grid into a
    single stream pass.
    """

    def __init__(
        self,
        matrix: ScenarioMatrix,
        *,
        plan: ExecutionPlan | None = None,
        projects: set[str] | None = None,
        stages: Sequence[Stage] = DEFAULT_STAGES,
        dataset_factory: Callable[[ScenarioConfig], ScenarioDataset] | None = None,
        store: "ArtifactStore | None" = None,
    ) -> None:
        self.matrix = matrix
        self.plan = plan or ExecutionPlan()
        self.projects = projects
        self.cache = ArtifactCache(store)
        self._stages = tuple(stages)
        self._dataset_factory = dataset_factory or (
            lambda config: ScenarioSimulator(config).generate()
        )
        self._datasets: dict[object, ScenarioDataset] = {}
        self._results: CampaignResult | None = None

    # ------------------------------------------------------------------ #
    def dataset_for(self, config: ScenarioConfig) -> ScenarioDataset:
        """The (memoised) dataset for one scenario configuration.

        Counted under ``dataset`` in the build tallies: one count per
        distinct configuration handed to the factory (which simulates by
        default, but may return pre-built datasets).
        """
        key = fingerprint(config)
        dataset = self._datasets.get(key)
        if dataset is None:
            dataset = self._datasets[key] = self._dataset_factory(config)
            self.cache.note_build("dataset")
        return dataset

    def context_for(self, cell: ScenarioCell) -> PipelineContext:
        """A pipeline context for one cell, attached to the shared pool/cache."""
        return PipelineContext(
            self.dataset_for(cell.config),
            projects=self.projects,
            enable_bundling=cell.ablation.enable_bundling,
            use_inferred_dictionary=cell.ablation.use_inferred_dictionary,
            grouping_timeout=cell.ablation.grouping_timeout,
            plan=self.plan,
            stages=self._stages,
            shared_cache=self.cache,
        )

    def results(self) -> CampaignResult:
        """Lazy per-cell results: stages run on first attribute access.

        Memoised: repeated calls (and :meth:`run`) return the same
        :class:`CampaignResult` over the same contexts, so work already done
        for a cell is never repeated within one campaign.
        """
        from repro.analysis.pipeline import StudyResult

        if self._results is None:
            cells = self.matrix.cells()
            self._results = CampaignResult(
                cells,
                [StudyResult(self.context_for(cell)) for cell in cells],
                self.cache,
            )
        return self._results

    def _attach_store(self, store: "ArtifactStore") -> None:
        """Back the campaign's cache with ``store`` (before any cell runs).

        The cache must back every cell from the start -- contexts capture
        it at creation -- so attaching after :meth:`results` has been
        called is refused rather than silently leaving earlier cells on
        the old backend.  (The public surfaces are the ``store=``
        constructor argument and ``run(store=...)``.)
        """
        if self._results is not None:
            raise RuntimeError(
                "attach the artifact store before results() is first called; "
                "existing cell contexts are already bound to the previous cache"
            )
        self.cache = ArtifactCache(store)

    def run(
        self,
        analyses: Iterable[str] | None = None,
        *,
        store: "ArtifactStore | None" = None,
    ) -> CampaignResult:
        """Materialise the grid through the fused scheduler and return it.

        Cells needing the inference stage are grouped by their stream
        identity (:func:`repro.exec.stages.stream_identity`) and each group
        runs as one fused multi-engine pass
        (:meth:`~repro.exec.plan.ExecutionPlan.run_inference_many`): a whole
        ablation grid costs one stream iteration (plus one extra pass when
        some cells need the inferred dictionary, whose construction must
        observe the full stream first), with per-cell results bit-identical
        to independent runs.

        ``analyses`` prunes the schedule to the named registry artifacts
        (:mod:`repro.analysis.registry`): only the stages their declared
        ``needs`` can trigger (per
        :meth:`~repro.exec.context.PipelineContext.stages_for`) are
        scheduled, so a sweep that only tabulates inference-free artifacts
        (e.g. ``fig2``) never constructs an engine; the remaining resolution
        happens lazily in :meth:`CampaignResult.tabulate`.  With
        ``analyses=None`` every cell is fully materialised.

        Passing ``store`` (equivalent to the constructor argument, but
        usable when the campaign object pre-exists) a warm
        :class:`~repro.exec.store.DiskStore` resumes a previous campaign --
        grid-invariant stages rebuild zero times, which the
        ``build_counts`` tallies prove.  It must be attached before any
        cell result exists.
        """
        if store is not None:
            self._attach_store(store)
        results = self.results()
        self._schedule(results, analyses)
        if analyses is None:
            results.run()
        return results

    def run_distributed(
        self,
        *,
        workers: int = 2,
        store: "ArtifactStore | None" = None,
        **options,
    ):
        """Serve the grid with ``workers`` cooperating worker processes.

        Delegates to :func:`repro.exec.distrib.run_distributed`: the cells
        are enumerated into a durable work-queue inside the campaign's
        :class:`~repro.exec.store.DiskStore` (``store=`` here, or the
        constructor's), worker processes claim them under renewable leases
        and fuse the stream passes for the cells each holds, and shared
        stages are built exactly once fleet-wide behind a store-level
        build gate.  Returns the
        :class:`~repro.exec.distrib.DistributedOutcome` with per-worker
        ledgers and the aggregated ``build_counts`` proof; per-cell
        artifacts are bit-identical to a serial :meth:`run`.  Workers on
        other hosts may join the same queue via ``repro worker``.
        """
        from repro.exec.distrib import run_distributed

        return run_distributed(self, workers=workers, store=store, **options)

    # ------------------------------------------------------------------ #
    # Fused scheduling
    # ------------------------------------------------------------------ #
    def _schedule(self, results: CampaignResult, analyses: Iterable[str] | None) -> None:
        """Run one fused multi-engine pass per group of inference cells."""
        if analyses is None:
            needs: set[str] | None = None
        else:
            from repro.analysis import registry

            needs = set()
            for name in analyses:
                needs.update(registry.get(name).needs)
        groups: dict[tuple, list[PipelineContext]] = {}
        for result in results:
            context = result.context
            if context.has("observations"):
                continue  # a lazily driven cell already paid for inference
            if needs is not None and "inference" not in context.stages_for(needs):
                continue
            groups.setdefault(stream_identity(context), []).append(context)
        for group in groups.values():
            self._run_fused(group)

    def _run_fused(self, contexts: list[PipelineContext]) -> None:
        """One (or two) fused stream passes serving every given context.

        All contexts share one stream identity.  Cells whose effective
        dictionary is resolvable up front (documented-only, or the usage
        statistics are already cached) fuse into the first pass; cells
        needing the *inferred* dictionary -- which is a function of the
        full-stream usage statistics -- run in a second fused pass once
        those statistics exist.  The first pass collects the statistics
        inline whenever nobody has them yet, so the old standalone
        statistics iteration never runs.
        """
        lead = contexts[0]
        dataset = lead.dataset
        documented = lead.get("documented_dictionary")

        def stats_ready() -> bool:
            return lead.has("usage_stats") or lead.shared_has("usage_stats")

        if stats_ready():
            waves = [contexts]
        else:
            first = [c for c in contexts if not c.use_inferred_dictionary]
            second = [c for c in contexts if c.use_inferred_dictionary]
            # With no documented-only cell to piggyback on, resolving the
            # inferred dictionary below runs the usage-statistics stage
            # (one stats pass), after which all cells fuse into one pass.
            waves = [wave for wave in (first, second) if wave]
        for wave in waves:
            # Fuse the usage-statistics collection into this pass whenever
            # they are still missing and cannot influence the wave's own
            # engine dictionaries (inferred-dictionary cells resolve theirs
            # through the stats *before* the pass starts).
            collect = None
            if not stats_ready() and not any(
                c.use_inferred_dictionary for c in wave
            ):
                collect = documented
            requests = [
                InferenceRequest(
                    dictionary=c.get("effective_dictionary"),
                    enable_bundling=c.enable_bundling,
                    grouping_timeout=c.grouping_timeout,
                    on_observation=c.observation_callback,
                )
                for c in wave
            ]
            outcomes = self.plan.run_inference_many(
                lead.stream(),
                requests,
                end_time=dataset.end,
                peeringdb=dataset.topology.peeringdb,
                collect_usage_stats=collect,
            )
            # One stage-build tally per fused pass, however many cells it fed.
            self.cache.note_build("inference")
            self.cache.note_dispatch(outcomes)
            shared_stats = outcomes[0].usage_stats if outcomes else None
            if shared_stats is not None:
                lead.publish("usage_stats", {"usage_stats": shared_stats})
            for context, outcome in zip(wave, outcomes):
                context.adopt("inference", inference_artifacts(outcome))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"StudyCampaign(matrix={self.matrix!r}, plan={self.plan!r})"
