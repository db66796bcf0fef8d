"""Shared state and per-stage caching for one pipeline execution.

A :class:`PipelineContext` couples one scenario dataset with an
:class:`~repro.exec.plan.ExecutionPlan` and lazily resolves named artifacts
("report", "events", "usage_stats", ...) through the stage registry.  Every
stage runs at most once per context; whatever it produced is cached, so
analyses can request exactly the artifacts they need and share everything
already computed.

Contexts can additionally share an :class:`ArtifactCache`: a keyed
cross-context store used by campaigns (:mod:`repro.exec.campaign`).  A stage
with a content-addressed cache identity (``Stage.cache_inputs``) consults
the shared cache before building, so sibling contexts that agree on the
stage's inputs compute it once between them.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.events import BlackholingObservation
from repro.core.grouping import DEFAULT_GROUPING_TIMEOUT
from repro.exec.plan import ExecutionOutcome, ExecutionPlan
from repro.exec.stages import DEFAULT_STAGES, Stage
from repro.gcpause import paused_gc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.store import ArtifactStore

__all__ = ["ArtifactCache", "PipelineContext"]


class ArtifactCache:
    """Cross-context, content-addressed store of stage products.

    Keys are ``(stage name, *cache inputs)`` tuples as produced by
    ``Stage.cache_inputs``; values are the full artifact dict the stage
    built.  Shared products must be treated as read-only by consumers --
    every context that hits the same key sees the same objects.

    Storage is delegated to a pluggable :class:`~repro.exec.store.ArtifactStore`
    backend: the default :class:`~repro.exec.store.MemoryStore` keeps the
    classic in-process dict, while a :class:`~repro.exec.store.DiskStore`
    persists every shareable product content-addressed on disk (spilled
    through an LRU rather than pinned), which is what makes campaigns
    survive process restarts and resume warm.

    ``build_counts`` tallies every stage build performed by the attached
    contexts (shared *and* private stages), which is how campaign tests and
    benchmarks assert that invariant work really ran only once.
    """

    def __init__(self, store: "ArtifactStore | None" = None) -> None:
        if store is None:
            from repro.exec.store import MemoryStore

            store = MemoryStore()
        self.backend: "ArtifactStore" = store
        self.build_counts: Counter[str] = Counter()

    def lookup(self, key: tuple) -> dict[str, object] | None:
        return self.backend.lookup(key)

    def store(self, key: tuple, produced: dict[str, object]) -> None:
        self.backend.store(key, produced)

    def note_build(self, stage_name: str) -> None:
        self.build_counts[stage_name] += 1

    def note_dispatch(self, outcomes: Sequence[ExecutionOutcome]) -> None:
        """Tally one inference pass's columnar dispatch work.

        ``elem_batches`` gains the ``ElemBatch`` units the pass pushed
        through its lead engine and ``rows_materialised`` the
        ``StreamElem`` rows its engines built from lazy-row batches.  Rows
        are cached on the batch every engine of a fused pass shares, so
        the sum over the outcomes counts distinct rows.  An empty pass (no
        batches) tallies nothing.
        """
        batches = outcomes[0].engine_stats.batches_processed
        if not batches:
            return
        self.build_counts["elem_batches"] += batches
        self.build_counts["rows_materialised"] += sum(
            outcome.engine_stats.rows_materialised for outcome in outcomes
        )

    def __len__(self) -> int:
        return len(self.backend)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ArtifactCache(backend={self.backend!r}, "
            f"builds={dict(self.build_counts)})"
        )


class PipelineContext:
    """Lazy, cached resolution of pipeline artifacts for one dataset.

    Parameters mirror the classic ``StudyPipeline`` knobs; ``plan`` carries
    the execution layout (shard count, batch size, backend),
    ``observation_callback`` is an optional streaming hook invoked for every
    observation the inference pass completes, and ``shared_cache`` attaches
    the context to a campaign's cross-context :class:`ArtifactCache`.
    """

    def __init__(
        self,
        dataset,
        *,
        projects: set[str] | None = None,
        enable_bundling: bool = True,
        use_inferred_dictionary: bool = False,
        grouping_timeout: float = DEFAULT_GROUPING_TIMEOUT,
        plan: ExecutionPlan | None = None,
        stages: Sequence[Stage] = DEFAULT_STAGES,
        observation_callback: Callable[[BlackholingObservation], None] | None = None,
        shared_cache: ArtifactCache | None = None,
    ) -> None:
        self.dataset = dataset
        self.projects = projects
        self.enable_bundling = enable_bundling
        self.use_inferred_dictionary = use_inferred_dictionary
        self.grouping_timeout = grouping_timeout
        self.plan = plan or ExecutionPlan()
        self.observation_callback = observation_callback
        self.shared_cache = shared_cache
        self._stages = tuple(stages)
        self._stage_by_artifact: dict[str, Stage] = {}
        for stage in self._stages:
            for artifact in stage.provides:
                self._stage_by_artifact.setdefault(artifact, stage)
        self._artifacts: dict[str, object] = {}
        self._building: set[str] = set()
        #: Per-context tally of stage builds (shared-cache hits don't count).
        #: The analysis-suite benchmarks assert on it that requesting all
        #: registered artifacts builds every stage at most once.
        self.build_counts: Counter[str] = Counter()
        #: Number of elem-stream iterations this context has started (every
        #: :meth:`stream` call is consumed exactly once by its caller).  The
        #: fused-sweep tests and benchmarks assert on this -- mirrored into
        #: the shared cache's ``build_counts`` under ``"stream_pass"`` -- to
        #: prove grid fusion really eliminated redundant passes.
        self.stream_passes: int = 0

    # ------------------------------------------------------------------ #
    def stream(self):
        """A fresh merged elem stream over (a subset of) the sources."""
        self.stream_passes += 1
        if self.shared_cache is not None:
            self.shared_cache.note_build("stream_pass")
        return self.dataset.bgp_stream(self.projects)

    def artifact_names(self) -> tuple[str, ...]:
        return tuple(self._stage_by_artifact)

    def has(self, name: str) -> bool:
        """Whether an artifact has already been computed (never triggers)."""
        return name in self._artifacts

    def stages_for(self, names: Iterable[str]) -> tuple[str, ...]:
        """Stage names (canonical order) an artifact set may trigger.

        The transitive closure over each producing stage's declared
        ``requires`` -- a worst-case, static view (conditional pulls such as
        the effective dictionary's inferred branch count as required), used
        for introspection; actual resolution stays dynamic via :meth:`get`.
        """
        needed: set[str] = set()
        pending = list(names)
        while pending:
            artifact = pending.pop()
            stage = self._stage_by_artifact.get(artifact)
            if stage is None:
                raise KeyError(
                    f"unknown artifact {artifact!r}; known: "
                    f"{sorted(self._stage_by_artifact)}"
                )
            if stage.name in needed:
                continue
            needed.add(stage.name)
            pending.extend(stage.requires)
        return tuple(stage.name for stage in self._stages if stage.name in needed)

    # ------------------------------------------------------------------ #
    def _shared_key(self, stage: Stage) -> tuple | None:
        """The stage's cross-context cache key, or ``None`` if not shareable."""
        if self.shared_cache is None or stage.cache_inputs is None:
            return None
        return (stage.name, *stage.cache_inputs(self))

    def shared_has(self, name: str) -> bool:
        """Whether the shared cache already holds the named artifact.

        Never triggers a build; ``False`` without a shared cache or when the
        producing stage has no cache identity.
        """
        stage = self._stage_by_artifact.get(name)
        if stage is None:
            return False
        key = self._shared_key(stage)
        return key is not None and self.shared_cache.lookup(key) is not None

    def publish(self, name: str, produced: dict[str, object]) -> None:
        """Offer opportunistically computed products to the shared cache.

        Stored under the owning stage's content-addressed identity (the
        stage that declares ``name``), so sibling contexts resolve it
        exactly as if that stage had run.  A no-op without a shared cache,
        without a cache identity, or when the key is already present.
        """
        stage = self._stage_by_artifact.get(name)
        if stage is None:
            return
        key = self._shared_key(stage)
        if key is not None:
            self.shared_cache.store(key, produced)

    def adopt(self, stage_name: str, produced: dict[str, object]) -> None:
        """Install externally computed products as the named stage's output.

        The fused campaign scheduler runs one multi-engine stream pass on
        behalf of several sibling contexts and hands each its own engine's
        artifacts through this method, as if the stage had run here.
        ``produced`` must cover everything the stage declares it provides
        -- a partial adoption would let a later ``get`` silently re-run the
        full stage, defeating the fusion.  Adopted products do not count as
        per-context builds (the work happened once, outside, and is tallied
        by the scheduler), and -- like opportunistic stage products -- they
        never clobber artifacts already cached.
        """
        stage = next((s for s in self._stages if s.name == stage_name), None)
        if stage is None:
            raise KeyError(
                f"unknown stage {stage_name!r}; known: "
                f"{[s.name for s in self._stages]}"
            )
        missing = [a for a in stage.provides if a not in produced]
        if missing:
            raise ValueError(
                f"adopting {stage_name!r} without its declared products "
                f"{missing}; a later get() would re-run the whole stage"
            )
        for artifact, value in produced.items():
            self._artifacts.setdefault(artifact, value)

    def get(self, name: str):
        """The named artifact, running its producing stage if needed."""
        if name in self._artifacts:
            return self._artifacts[name]
        stage = self._stage_by_artifact.get(name)
        if stage is None:
            raise KeyError(
                f"unknown artifact {name!r}; known: {sorted(self._stage_by_artifact)}"
            )
        if stage.name in self._building:
            raise RuntimeError(f"circular stage dependency via {stage.name!r}")
        produced = None
        shared_key = self._shared_key(stage)
        if shared_key is not None:
            produced = self.shared_cache.lookup(shared_key)
        if produced is None:
            self._building.add(stage.name)
            try:
                with paused_gc():
                    produced = stage.build(self)
            finally:
                self._building.discard(stage.name)
            self.build_counts[stage.name] += 1
            if self.shared_cache is not None:
                self.shared_cache.note_build(stage.name)
                if shared_key is not None:
                    self.shared_cache.store(shared_key, produced)
        # A stage may opportunistically provide extra artifacts (e.g. the
        # fused inference pass also yields usage_stats); never clobber
        # something already cached.
        for artifact, value in produced.items():
            self._artifacts.setdefault(artifact, value)
        if name not in self._artifacts:  # pragma: no cover - registry bug
            raise RuntimeError(f"stage {stage.name!r} did not produce {name!r}")
        return self._artifacts[name]

    def get_many(self, names: Iterable[str]) -> dict[str, object]:
        return {name: self.get(name) for name in names}

    def force_all(self, order: Sequence[str] | None = None) -> None:
        """Compute every artifact (in ``order`` first, then the rest)."""
        for name in order or ():
            self.get(name)
        for stage in self._stages:
            for artifact in stage.provides:
                self.get(artifact)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PipelineContext(dataset={self.dataset!r}, plan={self.plan!r}, "
            f"cached={sorted(self._artifacts)})"
        )
