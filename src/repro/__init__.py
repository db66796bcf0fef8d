"""repro -- a from-scratch reproduction of
"Inferring BGP Blackholing Activity in the Internet" (Giotsas et al., IMC 2017).

The package has four layers:

* **Substrates** -- everything the measurement study consumed that cannot be
  fetched offline, rebuilt from scratch: the BGP protocol and MRT formats
  (:mod:`repro.bgp`, :mod:`repro.mrt`), a BGPStream-like streaming layer
  that merges collector sources lazily (:mod:`repro.stream`), a simulated
  Internet topology with IXPs and the auxiliary datasets
  (:mod:`repro.topology`), a routing and collector simulation
  (:mod:`repro.routing`), an IRR/web documentation corpus
  (:mod:`repro.registry`), DDoS attack scenarios (:mod:`repro.attacks`), the
  end-to-end workload generator (:mod:`repro.workload`), and data-plane
  measurement stand-ins (:mod:`repro.dataplane`).
* **The execution core** (:mod:`repro.exec`) -- how a study runs:
  :class:`~repro.exec.plan.ExecutionPlan` shards the merged elem stream by
  prefix across N workers (serial / in-process demultiplex / forked
  processes) and merges results deterministically.  Its one dispatch path
  is columnar: the stream is chunked into
  :class:`~repro.stream.batch.ElemBatch` structs-of-arrays (interned
  community tuples, prefix shard keys) that engines consume whole --
  bit-identical to the per-elem reference semantics.  Meanwhile
  :class:`~repro.exec.context.PipelineContext` resolves the pipeline's
  composable stages (dictionary, usage statistics, inference, grouping,
  report) lazily with per-stage caching.  On top of it, the campaign layer
  (:mod:`repro.exec.campaign`) expands a :class:`~repro.exec.campaign.ScenarioMatrix`
  (seeds x ablations x scales) through one shared plan and a cross-context
  artifact cache, so grid cells compute invariant stages once between them;
  its fused scheduler drives cells sharing a stream through one
  multi-engine iteration
  (:meth:`~repro.exec.plan.ExecutionPlan.run_inference_many`) and prunes
  stages by the requested analyses' declared needs.  The cache's storage is
  a pluggable backend (:mod:`repro.exec.store`): the default
  :class:`~repro.exec.store.MemoryStore` keeps everything in-process, while
  :class:`~repro.exec.store.DiskStore` persists shareable stage products
  content-addressed on disk, making campaigns durable and *resumable*
  (``repro sweep --store DIR --resume``).
* **The paper's contribution** -- the blackhole community dictionary
  (:mod:`repro.dictionary`) and the blackholing inference engine with its
  incremental grouping accumulator (:mod:`repro.core`).
* **Evaluation** -- one analysis module per table and figure
  (:mod:`repro.analysis`), unified by the analysis registry
  (:mod:`repro.analysis.registry`): every artifact is registered under a
  stable name with the pipeline artifacts it needs, and the benchmark
  harness under ``benchmarks/`` (including the serial-vs-sharded scaling
  benchmark) drives them.

Quickstart::

    from repro.workload import ScenarioConfig, ScenarioSimulator
    from repro.analysis.pipeline import StudyPipeline

    dataset = ScenarioSimulator(ScenarioConfig.small()).generate()
    result = StudyPipeline(dataset, workers=4).run()   # workers=1: serial
    print(result.report)

Evaluation API::

    result = StudyPipeline(dataset).result()        # lazy: nothing runs yet
    print(result.analysis("table2").render())       # builds dictionaries only
    result.analysis("fig2").to_dict()               # machine-readable artifact
    result.analyses()                               # all 15 figures/tables

    from repro.analysis import registry
    registry.names()                                # enumerate the registry

Campaigns tabulate one analysis across every cell of a sweep, and the same
registry backs the CLI (``repro report --list``, ``repro report fig2 table1
--format json``, ``repro sweep --report table2``)::

    results = StudyCampaign(matrix).results()
    print(results.tabulate("table2", by="seed").render())
"""

from repro.analysis.pipeline import StudyPipeline, StudyResult
from repro.analysis.registry import Analysis, AnalysisResult
from repro.core.inference import BlackholingInferenceEngine
from repro.core.report import InferenceReport
from repro.dictionary.builder import DictionaryBuilder
from repro.dictionary.model import BlackholeDictionary
from repro.exec.campaign import (
    AblationSpec,
    CampaignResult,
    ScenarioMatrix,
    StudyCampaign,
)
from repro.exec.context import ArtifactCache, PipelineContext
from repro.exec.plan import ExecutionPlan
from repro.exec.store import ArtifactStore, DiskStore, MemoryStore, Serializer
from repro.workload.config import ScenarioConfig
from repro.workload.simulation import ScenarioDataset, ScenarioSimulator

__version__ = "1.8.0"

__all__ = [
    "AblationSpec",
    "Analysis",
    "AnalysisResult",
    "ArtifactCache",
    "ArtifactStore",
    "BlackholeDictionary",
    "BlackholingInferenceEngine",
    "CampaignResult",
    "DictionaryBuilder",
    "DiskStore",
    "ExecutionPlan",
    "InferenceReport",
    "MemoryStore",
    "PipelineContext",
    "ScenarioConfig",
    "ScenarioDataset",
    "ScenarioMatrix",
    "ScenarioSimulator",
    "Serializer",
    "StudyCampaign",
    "StudyPipeline",
    "StudyResult",
    "__version__",
]
