"""Analyses reproducing every table and figure of the paper's evaluation.

Each fig/table module registers its artifacts with the unified analysis
registry (:mod:`repro.analysis.registry`), and the registered analysis is
the only public way to compute one: ``result.analysis("fig4")`` (or
``registry.get("fig4").run(result)``) returns an
:class:`~repro.analysis.registry.AnalysisResult` whose ``rows`` are the
typed rows (CDF points, histogram buckets, table rows) and whose ``meta``
holds the headline numbers the paper quotes beside the artifact, e.g.
``result.analysis("fig4_growth").meta["growth"]``.  The same artifacts are
tabulated across campaign cells via ``CampaignResult.tabulate(...)`` and
computed from the CLI via ``repro report``.

* :mod:`repro.analysis.pipeline` -- the shared scenario -> dictionary ->
  inference pipeline all analyses consume.
* :mod:`repro.analysis.registry` -- the registry: ``@analysis`` decorator,
  :class:`~repro.analysis.registry.AnalysisResult`, name lookup.
* :mod:`repro.analysis.table1` .. :mod:`repro.analysis.table4` -- Tables 1-4.
* :mod:`repro.analysis.fig2` .. :mod:`repro.analysis.fig9` -- Figures 2-9.
"""

from repro.analysis.pipeline import StudyPipeline, StudyResult
from repro.analysis.common import classify_provider, classify_user, format_table
from repro.analysis.registry import Analysis, AnalysisResult

__all__ = [
    "Analysis",
    "AnalysisResult",
    "StudyPipeline",
    "StudyResult",
    "classify_provider",
    "classify_user",
    "format_table",
]
