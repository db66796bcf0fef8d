"""Composable pipeline stages.

The monolithic ``StudyPipeline.run()`` of the seed is decomposed into four
stages -- dictionary build, community-usage statistics, inference, grouping
-- plus reporting.  Each stage declares the artifacts it *provides*; a
:class:`~repro.exec.context.PipelineContext` resolves artifact requests
through this registry and caches every product, so an analysis that only
needs, say, ``usage_stats`` (Figure 2) never pays for the inference pass.

Stage build functions pull their own dependencies through the context
(``context.get(...)``), which keeps conditional dependencies natural: the
effective dictionary only forces the usage-statistics pass when the
inferred dictionary is actually enabled.

Stages whose output is fully determined by scenario-level inputs also carry
a *cache identity* (``cache_inputs``): a function from the context to the
hashable inputs that determine the stage's products.  Contexts that share an
:class:`~repro.exec.context.ArtifactCache` (one campaign) reuse each other's
products whenever those identities agree -- an ablation grid over one
scenario builds the dictionary and usage statistics exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.report import InferenceReport
from repro.dictionary.builder import DictionaryBuilder
from repro.dictionary.inference import ExtendedDictionaryInference
from repro.exec.identity import fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.context import PipelineContext

__all__ = ["DEFAULT_STAGES", "Stage", "inference_artifacts", "stream_identity"]


@dataclass(frozen=True)
class Stage:
    """One named pipeline stage and the artifacts it produces.

    ``cache_inputs`` is the stage's content-addressed cache identity: it
    maps a context to the hashable inputs that fully determine the stage's
    products, or is ``None`` for stages whose products must stay private to
    their context (e.g. inference, whose outcome carries mutable per-run
    state and depends on every ablation knob).

    ``requires`` statically declares the artifacts the build function may
    pull through the context -- the worst case, for conditional pulls.  It
    never drives execution (builds fetch dependencies dynamically); it feeds
    :meth:`~repro.exec.context.PipelineContext.stages_for`, which the
    analysis registry uses to reason about what a declared ``needs`` set can
    trigger.
    """

    name: str
    provides: tuple[str, ...]
    build: Callable[["PipelineContext"], dict[str, object]]
    cache_inputs: Callable[["PipelineContext"], tuple] | None = None
    requires: tuple[str, ...] = ()


# --------------------------------------------------------------------------- #
# Cache identities.  The corpus (and hence the documented dictionary) is a
# deterministic function of the scenario configuration; the stream -- and
# hence the usage statistics and the inferred dictionary -- additionally
# depends on the project subset; the effective dictionary folds in the
# ablation knob that selects between the two dictionaries.
#
# Identities must stay *durable*: they are digested into the on-disk layout
# of :class:`repro.exec.store.DiskStore`, so they may only contain values
# :func:`repro.exec.identity.digest` accepts (no live objects, nothing
# whose identity depends on the running process).  Changing what a stage
# consumes without reflecting it here silently corrupts sharing; widening
# an identity invalidates old store entries, which is the intended
# cache-invalidation mechanism.
# --------------------------------------------------------------------------- #
def _scenario_identity(context: "PipelineContext") -> tuple:
    return (fingerprint(context.dataset.config),)


def stream_identity(context: "PipelineContext") -> tuple:
    """The hashable inputs that determine a context's elem stream.

    Contexts agreeing on this identity iterate byte-identical streams; the
    fused campaign scheduler (:meth:`repro.exec.campaign.StudyCampaign.run`)
    groups cells by it so one multi-engine pass can feed them all.
    """
    projects = context.projects
    return _scenario_identity(context) + (
        None if projects is None else tuple(sorted(projects)),
    )


def _effective_dictionary_identity(context: "PipelineContext") -> tuple:
    return stream_identity(context) + (context.use_inferred_dictionary,)


# --------------------------------------------------------------------------- #
def _build_dictionary(context: "PipelineContext") -> dict[str, object]:
    builder = DictionaryBuilder(context.dataset.corpus)
    return {
        "documented_dictionary": builder.build(),
        "non_blackhole_communities": builder.build_non_blackhole_dictionary(),
    }


def _build_usage_stats(context: "PipelineContext") -> dict[str, object]:
    documented = context.get("documented_dictionary")
    stats = context.plan.run_usage_stats(context.stream(), documented)
    return {"usage_stats": stats}


def _build_inferred_dictionary(context: "PipelineContext") -> dict[str, object]:
    documented = context.get("documented_dictionary")
    extension = ExtendedDictionaryInference(documented)
    return {
        "inferred_dictionary": extension.as_dictionary(context.get("usage_stats"))
    }


def _build_effective_dictionary(context: "PipelineContext") -> dict[str, object]:
    dictionary = context.get("documented_dictionary")
    if context.use_inferred_dictionary:
        dictionary = dictionary.merge(context.get("inferred_dictionary"))
    return {"effective_dictionary": dictionary}


def inference_artifacts(outcome) -> dict[str, object]:
    """The inference stage's provided artifacts for one execution outcome.

    The single mapping from an
    :class:`~repro.exec.plan.ExecutionOutcome` to the stage's ``provides``
    -- used by the stage build below and by the fused campaign scheduler
    (:meth:`~repro.exec.campaign.StudyCampaign.run`), which adopts one
    outcome per cell; keep it in lockstep with the stage declaration
    (:meth:`~repro.exec.context.PipelineContext.adopt` validates that).
    """
    return {
        "execution_outcome": outcome,
        "observations": outcome.observations,
        "engine": outcome.engine,
        "engine_stats": outcome.engine_stats,
        "cleaning_stats": outcome.cleaning_stats,
        "grouping_accumulator": outcome.accumulator,
    }


def _build_inference(context: "PipelineContext") -> dict[str, object]:
    dataset = context.dataset
    # Fuse the usage-statistics pass into this stream iteration whenever it
    # has not run yet (here or in a sibling campaign context) and cannot
    # influence the engine's dictionary -- the old pipeline's second full
    # pass over the stream disappears.
    fuse = (
        not context.has("usage_stats")
        and not context.shared_has("usage_stats")
        and not context.use_inferred_dictionary
    )
    outcome = context.plan.run_inference(
        context.stream(),
        context.get("effective_dictionary"),
        end_time=dataset.end,
        peeringdb=dataset.topology.peeringdb,
        enable_bundling=context.enable_bundling,
        grouping_timeout=context.grouping_timeout,
        collect_usage_stats=(
            context.get("documented_dictionary") if fuse else None
        ),
        on_observation=context.observation_callback,
    )
    artifacts = inference_artifacts(outcome)
    if context.shared_cache is not None:
        context.shared_cache.note_dispatch([outcome])
    if outcome.usage_stats is not None:
        artifacts["usage_stats"] = outcome.usage_stats
        # Let sibling campaign contexts resolve the fused statistics under
        # the usage_stats stage's own cache identity instead of re-deriving
        # them with a full extra stream pass.
        context.publish("usage_stats", {"usage_stats": outcome.usage_stats})
    return artifacts


def _build_grouping(context: "PipelineContext") -> dict[str, object]:
    accumulator = context.get("grouping_accumulator")
    # Two independent walks so callers can mutate one view without
    # corrupting the other (matching the seed's two separate computations).
    return {
        "events": accumulator.events(),
        "grouped_periods": accumulator.events(),
    }


def _build_report(context: "PipelineContext") -> dict[str, object]:
    return {"report": InferenceReport(context.get("observations"))}


#: The standard stage registry, in canonical execution order.
DEFAULT_STAGES: tuple[Stage, ...] = (
    Stage(
        "dictionary",
        ("documented_dictionary", "non_blackhole_communities"),
        _build_dictionary,
        cache_inputs=_scenario_identity,
    ),
    Stage(
        "usage_stats",
        ("usage_stats",),
        _build_usage_stats,
        cache_inputs=stream_identity,
        requires=("documented_dictionary",),
    ),
    Stage(
        "inferred_dictionary",
        ("inferred_dictionary",),
        _build_inferred_dictionary,
        cache_inputs=stream_identity,
        requires=("documented_dictionary", "usage_stats"),
    ),
    Stage(
        "effective_dictionary",
        ("effective_dictionary",),
        _build_effective_dictionary,
        cache_inputs=_effective_dictionary_identity,
        requires=("documented_dictionary", "inferred_dictionary"),
    ),
    Stage(
        "inference",
        (
            "execution_outcome",
            "observations",
            "engine",
            "engine_stats",
            "cleaning_stats",
            "grouping_accumulator",
        ),
        _build_inference,
        requires=("effective_dictionary", "documented_dictionary"),
    ),
    Stage(
        "grouping",
        ("events", "grouped_periods"),
        _build_grouping,
        requires=("grouping_accumulator",),
    ),
    Stage("report", ("report",), _build_report, requires=("observations",)),
)
