"""Figure 8 -- blackholing event durations.

8(a): CDFs of event durations, ungrouped (per-peer events, dominated by the
sub-minute ON/OFF pattern) versus grouped into periods with a 5-minute
timeout; 8(b): histogram of ungrouped durations showing the three regimes
(short-lived minutes, long-lived weeks, very-long-lived months).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis import registry
from repro.analysis.common import cdf_points
from repro.analysis.pipeline import StudyResult
from repro.core.grouping import event_durations, group_into_periods

__all__ = ["DurationSummary", "fig8_analysis"]

#: Grouping timeout (seconds) of the "grouped" series: the paper's 5 minutes.
GROUPING_TIMEOUT = 300.0
#: Bucket width (hours) of the ungrouped-duration histogram (Figure 8(b)).
BIN_HOURS = 6.0


@dataclass(frozen=True)
class DurationSummary:
    """The headline duration statistics of Section 9."""

    ungrouped_events: int
    grouped_events: int
    ungrouped_under_one_minute_fraction: float
    grouped_under_one_minute_fraction: float
    ungrouped_over_16h_fraction: float
    grouped_over_16h_fraction: float


def _fraction(values: list[float], predicate) -> float:
    if not values:
        return 0.0
    return sum(1 for value in values if predicate(value)) / len(values)


@registry.analysis(
    "fig8",
    title="Figure 8: blackholing event durations (ungrouped vs grouped)",
    needs=("observations", "grouped_periods"),
)
def fig8_analysis(result: StudyResult) -> registry.AnalysisResult:
    """Figure 8's duration CDFs, with the histogram and summary as meta.

    The grouped series always uses :data:`GROUPING_TIMEOUT`: the pipeline's
    cached periods when it grouped with that timeout, a regrouping of the
    observations otherwise.
    """
    ungrouped = event_durations(result.observations)
    if result.context.grouping_timeout == GROUPING_TIMEOUT:
        periods = result.grouped_periods
    else:
        periods = group_into_periods(result.observations, timeout=GROUPING_TIMEOUT)
    grouped = event_durations(periods)

    rows: list[dict] = []
    for series, durations in (("ungrouped", ungrouped), ("grouped", grouped)):
        for duration, fraction in cdf_points(durations):
            rows.append({"series": series, "duration": duration, "cdf": fraction})

    histogram: dict[float, int] = {}
    for duration in ungrouped:
        bucket = math.floor(duration / (BIN_HOURS * 3600.0)) * BIN_HOURS
        histogram[bucket] = histogram.get(bucket, 0) + 1

    minute = 60.0
    sixteen_hours = 16 * 3600.0
    summary = DurationSummary(
        ungrouped_events=len(ungrouped),
        grouped_events=len(grouped),
        ungrouped_under_one_minute_fraction=_fraction(ungrouped, lambda d: d <= minute),
        grouped_under_one_minute_fraction=_fraction(grouped, lambda d: d <= minute),
        ungrouped_over_16h_fraction=_fraction(ungrouped, lambda d: d > sixteen_hours),
        grouped_over_16h_fraction=_fraction(grouped, lambda d: d > sixteen_hours),
    )
    return registry.AnalysisResult(
        name="fig8",
        title="Figure 8: blackholing event durations (ungrouped vs grouped)",
        headers=("series", "duration", "cdf"),
        rows=tuple(rows),
        meta={"summary": summary, "histogram_hours": dict(sorted(histogram.items()))},
    )
