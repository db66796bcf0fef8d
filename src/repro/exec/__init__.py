"""The streaming execution core.

This package turns the batch pipeline of the seed into an incremental,
shard-parallel execution layer:

* :mod:`repro.exec.plan` -- :class:`ExecutionPlan` partitions the merged
  elem stream by prefix across N workers (serial / in-process demultiplex /
  forked processes) and merges the per-shard results deterministically;
* :mod:`repro.exec.stages` -- the pipeline decomposed into composable
  stages (dictionary, usage statistics, inference, grouping, report), each
  optionally carrying a content-addressed cache identity;
* :mod:`repro.exec.context` -- :class:`PipelineContext`, the per-execution
  artifact cache that stages and analyses share, and :class:`ArtifactCache`,
  the keyed cross-context store campaigns attach to it;
* :mod:`repro.exec.store` -- the cache's pluggable storage backends:
  :class:`MemoryStore` (in-process, the default) and :class:`DiskStore`
  (content-addressed on-disk persistence keyed by durable
  :func:`~repro.exec.identity.digest` identities, with typed artifact
  serialisers), which makes campaigns durable and resumable;
* :mod:`repro.exec.campaign` -- :class:`ScenarioMatrix` /
  :class:`StudyCampaign` / :class:`CampaignResult`, the scenario-grid layer
  that runs seed sweeps, ablation grids and scale ladders through one plan
  pool while computing invariant artifacts once across cells;
  :meth:`CampaignResult.tabulate` computes one registered analysis
  (:mod:`repro.analysis.registry`) across every cell into a
  :class:`CampaignTable`;
* :mod:`repro.exec.distrib` -- the distributed campaign layer: a
  crash-safe :class:`CellQueue` inside the :class:`DiskStore` that leases
  whole stream groups (the cells of one scenario configuration), so each
  claim is one fused pass and every shared stage is built by the group's
  holder alone -- exactly once per queue; per-worker
  :class:`WorkerLedger` accounting; and :func:`run_worker` /
  :func:`run_distributed` (``StudyCampaign.run_distributed``, ``repro
  worker``, ``repro sweep --workers-distributed``) so N processes on one
  host or many serve one grid against one warm store.

``ExecutionPlan(workers=1)`` reproduces the pre-refactor serial pipeline
bit-for-bit; larger worker counts shard by prefix, which is exact because
neither the engine nor the grouping layer holds cross-prefix state.
"""

from repro.exec.campaign import (
    ABLATIONS,
    BASELINE,
    INFERRED_DICTIONARY,
    NO_BUNDLING,
    AblationSpec,
    CampaignResult,
    CampaignTable,
    ScenarioCell,
    ScenarioMatrix,
    StudyCampaign,
)
from repro.exec.context import ArtifactCache, PipelineContext
from repro.exec.distrib import (
    CellQueue,
    DistributedOutcome,
    GroupClaim,
    QueueStatus,
    WorkerLedger,
    aggregate_build_counts,
    run_distributed,
    run_worker,
)
from repro.exec.identity import digest, fingerprint
from repro.exec.plan import (
    ExecutionOutcome,
    ExecutionPlan,
    InferenceRequest,
    observation_sort_key,
    shard_of,
    shard_of_key,
    shard_predicate,
)
from repro.exec.stages import DEFAULT_STAGES, Stage, stream_identity
from repro.exec.store import (
    ArtifactStore,
    DiskStore,
    MemoryStore,
    Serializer,
    dump_artifact,
    load_artifact,
)

__all__ = [
    "ABLATIONS",
    "BASELINE",
    "DEFAULT_STAGES",
    "INFERRED_DICTIONARY",
    "NO_BUNDLING",
    "AblationSpec",
    "ArtifactCache",
    "ArtifactStore",
    "CampaignResult",
    "CampaignTable",
    "CellQueue",
    "DiskStore",
    "DistributedOutcome",
    "GroupClaim",
    "QueueStatus",
    "WorkerLedger",
    "ExecutionOutcome",
    "ExecutionPlan",
    "InferenceRequest",
    "MemoryStore",
    "PipelineContext",
    "ScenarioCell",
    "ScenarioMatrix",
    "Serializer",
    "Stage",
    "StudyCampaign",
    "aggregate_build_counts",
    "digest",
    "dump_artifact",
    "fingerprint",
    "load_artifact",
    "observation_sort_key",
    "run_distributed",
    "run_worker",
    "shard_of",
    "shard_of_key",
    "shard_predicate",
    "stream_identity",
]
