"""Shared fixtures for the benchmark harness.

Two scenarios are prepared once per session:

* ``bench_campaign`` -- the Sep-Nov 2016 analysis window over the default
  topology, expanded into the paper's three ablation variants (baseline /
  no-bundling / inferred-dictionary) through one
  :class:`~repro.exec.campaign.StudyCampaign`, so the scenario simulation,
  the documented dictionary and the usage statistics are computed once and
  shared across every variant.  ``bench_result`` is the materialised
  baseline cell; the ablation benchmarks pull (and pay for) their own cells.
* ``longitudinal_result`` -- the Dec 2014 - Mar 2017 window over the small
  topology (to keep the multi-year stream tractable); used by Figure 4.

Every benchmark writes the rows/series it regenerates to ``<name>.txt`` in
``results_dir``: the git-ignored ``benchmarks/.results/`` by default, so a
plain test run leaves the tree clean, or the tracked ``benchmarks/results/``
when ``pytest --refresh-results`` asks for a refresh of the committed
paper-vs-measured rows.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bench_helpers import (  # noqa: E402
    LOCAL_RESULTS_DIR,
    RESULTS_DIR,
    bench_scenario_config,
    longitudinal_scenario_config,
)
from repro.analysis.pipeline import StudyPipeline, StudyResult  # noqa: E402
from repro.exec.campaign import (  # noqa: E402
    BASELINE,
    INFERRED_DICTIONARY,
    NO_BUNDLING,
    CampaignResult,
    ScenarioMatrix,
    StudyCampaign,
)
from repro.workload.simulation import ScenarioDataset, ScenarioSimulator  # noqa: E402


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--refresh-results",
        action="store_true",
        default=False,
        help="write benchmark result files to the tracked benchmarks/results/ "
        "instead of the git-ignored benchmarks/.results/",
    )


@pytest.fixture(scope="session")
def bench_dataset() -> ScenarioDataset:
    return ScenarioSimulator(bench_scenario_config()).generate()


@pytest.fixture(scope="session")
def bench_campaign(bench_dataset: ScenarioDataset) -> StudyCampaign:
    matrix = ScenarioMatrix(
        bench_scenario_config(),
        ablations=(BASELINE, NO_BUNDLING, INFERRED_DICTIONARY),
    )
    # The matrix's one scenario config equals the session dataset's, so the
    # factory hands the already-simulated dataset to every cell.
    return StudyCampaign(matrix, dataset_factory=lambda config: bench_dataset)


@pytest.fixture(scope="session")
def bench_campaign_results(bench_campaign: StudyCampaign) -> CampaignResult:
    """Lazy cell results; each benchmark materialises the cells it times."""
    return bench_campaign.results()


@pytest.fixture(scope="session")
def bench_result(bench_campaign_results: CampaignResult) -> StudyResult:
    return bench_campaign_results.get(ablation="baseline").materialise()


@pytest.fixture(scope="session")
def longitudinal_dataset() -> ScenarioDataset:
    return ScenarioSimulator(longitudinal_scenario_config()).generate()


@pytest.fixture(scope="session")
def longitudinal_result(longitudinal_dataset: ScenarioDataset) -> StudyResult:
    return StudyPipeline(longitudinal_dataset).run()


@pytest.fixture(scope="session")
def results_dir(request: pytest.FixtureRequest) -> pathlib.Path:
    refresh = request.config.getoption("--refresh-results")
    directory = RESULTS_DIR if refresh else LOCAL_RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory
