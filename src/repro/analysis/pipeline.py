"""The full measurement pipeline shared by all analyses.

``scenario dataset -> documented dictionary (+ non-blackhole dictionary)
-> inference engine over the merged BGP stream -> report + grouped events``

Since the streaming-core refactor this module is a thin facade over
:mod:`repro.exec`: :class:`StudyPipeline` builds a
:class:`~repro.exec.context.PipelineContext` (stage graph + artifact cache)
and :class:`StudyResult` is a lazy view over that context.  Attribute access
computes exactly the stages an analysis needs -- Figure 2 code touching only
``result.usage_stats`` never pays for the inference pass -- while
:meth:`StudyPipeline.run` keeps the eager everything-computed semantics the
tests and benchmarks rely on.
"""

from __future__ import annotations

from typing import Iterable

from repro.bgp.community import Community, LargeCommunity
from repro.core.events import BlackholingObservation
from repro.core.grouping import BlackholeEvent, DEFAULT_GROUPING_TIMEOUT
from repro.core.inference import BlackholingInferenceEngine
from repro.core.report import InferenceReport
from repro.dictionary.inference import CommunityUsageStats
from repro.dictionary.model import BlackholeDictionary
from repro.exec.context import PipelineContext
from repro.exec.plan import ExecutionPlan
from repro.workload.simulation import ScenarioDataset

__all__ = ["StudyPipeline", "StudyResult"]


class StudyResult:
    """Everything the inference pipeline produced for one scenario.

    A lazy view: each property resolves its artifact through the shared
    :class:`~repro.exec.context.PipelineContext`, so accessing
    ``result.usage_stats`` first runs a statistics-only pass but not
    inference, while ``result.report`` (or :meth:`materialise`) runs the
    inference pass, which collects the usage statistics in the same stream
    iteration unless they already exist.
    """

    def __init__(self, context: PipelineContext) -> None:
        self._context = context

    # ------------------------------------------------------------------ #
    @property
    def context(self) -> PipelineContext:
        return self._context

    @property
    def dataset(self) -> ScenarioDataset:
        return self._context.dataset

    @property
    def topology(self):
        return self._context.dataset.topology

    @property
    def dictionary(self) -> BlackholeDictionary:
        return self._context.get("documented_dictionary")

    @property
    def non_blackhole_communities(self) -> set[Community | LargeCommunity]:
        return self._context.get("non_blackhole_communities")

    @property
    def usage_stats(self) -> CommunityUsageStats:
        return self._context.get("usage_stats")

    @property
    def inferred_dictionary(self) -> BlackholeDictionary:
        return self._context.get("inferred_dictionary")

    @property
    def engine(self) -> BlackholingInferenceEngine | None:
        """The serial run's engine; ``None`` for sharded executions."""
        return self._context.get("engine")

    @property
    def observations(self) -> list[BlackholingObservation]:
        return self._context.get("observations")

    @property
    def report(self) -> InferenceReport:
        return self._context.get("report")

    @property
    def events(self) -> list[BlackholeEvent]:
        return self._context.get("events")

    @property
    def grouped_periods(self) -> list[BlackholeEvent]:
        return self._context.get("grouped_periods")

    # ------------------------------------------------------------------ #
    def analysis(self, name: str):
        """Compute one registered analysis artifact (e.g. ``"fig2"``).

        Resolves only the artifacts the analysis declares in its ``needs``
        through this result's context, so e.g. ``analysis("table2")`` builds
        the dictionaries but never pays for the inference pass.  Returns an
        :class:`~repro.analysis.registry.AnalysisResult`.
        """
        from repro.analysis import registry

        return registry.get(name).run(self)

    def analyses(self, names: Iterable[str] | None = None) -> dict[str, object]:
        """Compute several (default: all) registered analyses, by name."""
        from repro.analysis import registry

        selected = registry.names() if names is None else tuple(names)
        return {name: registry.get(name).run(self) for name in selected}

    def materialise(self) -> "StudyResult":
        """Compute every artifact eagerly and return self.

        The dictionary (shared-identity) is forced first so it lands in a
        campaign's cross-context cache, then inference -- which fuses the
        usage-statistics collection into its single stream pass whenever no
        sibling has produced the statistics yet -- then everything else.
        """
        self._context.force_all(order=("documented_dictionary", "observations"))
        return self

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"StudyResult(context={self._context!r})"


class StudyPipeline:
    """Runs the dictionary + inference pipeline over a scenario dataset.

    ``workers``/``backend`` configure the execution layout (see
    :class:`~repro.exec.plan.ExecutionPlan`): ``workers=1`` is the serial
    path; larger counts shard the stream by prefix.  A ready-made ``plan``
    overrides both knobs.

    ``shared_cache`` attaches the pipeline's context to a cross-context
    :class:`~repro.exec.context.ArtifactCache` -- e.g. one backed by a
    :class:`~repro.exec.store.DiskStore` that an earlier ``repro sweep
    --store`` populated, so a single study over the same scenario identity
    loads its dictionaries and usage statistics instead of rebuilding them.
    """

    def __init__(
        self,
        dataset: ScenarioDataset,
        projects: set[str] | None = None,
        enable_bundling: bool = True,
        use_inferred_dictionary: bool = False,
        grouping_timeout: float = DEFAULT_GROUPING_TIMEOUT,
        workers: int = 1,
        backend: str = "auto",
        plan: ExecutionPlan | None = None,
        shared_cache=None,
    ) -> None:
        self.dataset = dataset
        self.projects = projects
        self.enable_bundling = enable_bundling
        self.use_inferred_dictionary = use_inferred_dictionary
        self.grouping_timeout = grouping_timeout
        self.plan = plan or ExecutionPlan(workers=workers, backend=backend)
        self.shared_cache = shared_cache

    # ------------------------------------------------------------------ #
    def context(self) -> PipelineContext:
        """A fresh execution context (own artifact cache) for this setup."""
        return PipelineContext(
            self.dataset,
            projects=self.projects,
            enable_bundling=self.enable_bundling,
            use_inferred_dictionary=self.use_inferred_dictionary,
            grouping_timeout=self.grouping_timeout,
            plan=self.plan,
            shared_cache=self.shared_cache,
        )

    def result(self) -> StudyResult:
        """A lazy result: stages run on first attribute access."""
        return StudyResult(self.context())

    def run(self) -> StudyResult:
        """Compute every stage eagerly and return the (cached) result.

        Every plan, serial or sharded, streams the input once: the inference
        stage collects the usage statistics in the same iteration.  Only an
        inferred-dictionary study takes a second pass, because its engine's
        dictionary is derived from those statistics.
        """
        return self.result().materialise()
