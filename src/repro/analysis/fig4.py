"""Figure 4 -- the rise of BGP blackholing (longitudinal daily activity).

Three per-day time series over the full measurement window: active
blackholing providers (4a), blackholing users (4b) and blackholed prefixes
(4c), with the large spikes correlated to named DDoS incidents.  The module
also computes the growth factors quoted in Section 6 (providers more than
doubled, users grew fourfold, prefixes sixfold).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import registry
from repro.analysis.pipeline import StudyResult
from repro.attacks.incidents import NAMED_INCIDENTS
from repro.core.report import DailyActivity
from repro.netutils.timeutils import SECONDS_PER_DAY, day_start

__all__ = [
    "GrowthSummary",
    "SpikeAnnotation",
    "fig4_analysis",
    "fig4_growth_analysis",
]


@dataclass(frozen=True)
class GrowthSummary:
    """First-month vs last-month averages and the implied growth factors."""

    providers_start: float
    providers_end: float
    users_start: float
    users_end: float
    prefixes_start: float
    prefixes_end: float

    @property
    def provider_growth(self) -> float:
        return self.providers_end / self.providers_start if self.providers_start else 0.0

    @property
    def user_growth(self) -> float:
        return self.users_end / self.users_start if self.users_start else 0.0

    @property
    def prefix_growth(self) -> float:
        return self.prefixes_end / self.prefixes_start if self.prefixes_start else 0.0


@dataclass(frozen=True)
class SpikeAnnotation:
    """One detected spike, annotated with a named incident when one matches."""

    day: float
    prefixes: int
    baseline: float
    incident_label: str | None


#: Days averaged at each end of the series for the growth factors.
GROWTH_WINDOW_DAYS = 30
#: Trailing days whose mean prefix count is a spike's baseline.
SPIKE_WINDOW = 14
#: A day is a spike when its prefix count reaches this multiple of the baseline.
SPIKE_THRESHOLD = 2.0


def _growth(daily: list[DailyActivity]) -> GrowthSummary:
    """Average the first and last :data:`GROWTH_WINDOW_DAYS` days of the series."""
    if not daily:
        return GrowthSummary(0, 0, 0, 0, 0, 0)
    head = daily[:GROWTH_WINDOW_DAYS]
    tail = daily[-GROWTH_WINDOW_DAYS:]

    def mean(values: list[int]) -> float:
        return sum(values) / len(values) if values else 0.0

    return GrowthSummary(
        providers_start=mean([d.providers for d in head]),
        providers_end=mean([d.providers for d in tail]),
        users_start=mean([d.users for d in head]),
        users_end=mean([d.users for d in tail]),
        prefixes_start=mean([d.prefixes for d in head]),
        prefixes_end=mean([d.prefixes for d in tail]),
    )


@registry.analysis(
    "fig4",
    title="Figure 4: daily blackholing activity (providers / users / prefixes)",
    needs=("report",),
)
def fig4_analysis(result: StudyResult) -> registry.AnalysisResult:
    """The three per-day time series of Figure 4 as one registered artifact."""
    daily = result.report.daily_activity(result.dataset.start, result.dataset.end)
    growth = _growth(daily)
    return registry.AnalysisResult(
        name="fig4",
        title="Figure 4: daily blackholing activity (providers / users / prefixes)",
        headers=("day", "providers", "users", "prefixes"),
        rows=tuple(daily),
        meta={
            "days": len(daily),
            "provider_growth": growth.provider_growth,
            "user_growth": growth.user_growth,
            "prefix_growth": growth.prefix_growth,
        },
    )


@registry.analysis(
    "fig4_growth",
    title="Figure 4: growth factors and incident-correlated spikes",
    needs=("report",),
)
def fig4_growth_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Section 6's growth factors plus the detected, annotated spikes.

    A spike is a day whose blackholed-prefix count reaches
    :data:`SPIKE_THRESHOLD` times the mean of the :data:`SPIKE_WINDOW`
    preceding days, annotated with the named incident active that day.
    """
    daily = result.report.daily_activity(result.dataset.start, result.dataset.end)
    incident_days: dict[float, str] = {}
    for incident in NAMED_INCIDENTS:
        if incident.sustained:
            continue
        for offset in range(incident.duration_days):
            incident_days[day_start(incident.timestamp) + offset * SECONDS_PER_DAY] = (
                incident.label
            )
    spikes: list[SpikeAnnotation] = []
    for index, activity in enumerate(daily):
        history = daily[max(0, index - SPIKE_WINDOW) : index]
        if not history:
            continue
        baseline = sum(d.prefixes for d in history) / len(history)
        if baseline > 0 and activity.prefixes >= SPIKE_THRESHOLD * baseline:
            spikes.append(
                SpikeAnnotation(
                    day=activity.day,
                    prefixes=activity.prefixes,
                    baseline=baseline,
                    incident_label=incident_days.get(day_start(activity.day)),
                )
            )
    growth = _growth(daily)
    return registry.AnalysisResult(
        name="fig4_growth",
        title="Figure 4: growth factors and incident-correlated spikes",
        headers=("day", "prefixes", "baseline", "incident_label"),
        rows=tuple(spikes),
        meta={
            "growth": growth,
            "spikes": len(spikes),
            "annotated_spikes": sum(1 for s in spikes if s.incident_label),
        },
    )
