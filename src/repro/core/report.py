"""Aggregate statistics over inferred blackholing observations.

:class:`InferenceReport` is the bridge between the inference engine and the
table/figure analyses: it indexes observations by dataset (project),
provider, user and prefix, and answers the aggregation questions the
evaluation sections ask (visibility per dataset, uniqueness, per-day
activity, per-provider and per-user prefix counts).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.events import BlackholingObservation, DetectionMethod
from repro.netutils.prefixes import Prefix
from repro.netutils.timeutils import SECONDS_PER_DAY, day_start

__all__ = ["DailyActivity", "InferenceReport"]


@dataclass(frozen=True)
class DailyActivity:
    """Active providers / users / prefixes for one day (Figure 4)."""

    day: float
    providers: int
    users: int
    prefixes: int


class InferenceReport:
    """Queryable aggregation over a set of observations."""

    def __init__(self, observations: Iterable[BlackholingObservation]) -> None:
        self.observations = list(observations)

    # ------------------------------------------------------------------ #
    # Basic selections
    # ------------------------------------------------------------------ #
    def for_project(self, project: str) -> "InferenceReport":
        return InferenceReport(
            [o for o in self.observations if o.project == project]
        )

    def projects(self) -> set[str]:
        return {o.project for o in self.observations}

    def providers(self, project: str | None = None) -> set[str]:
        return {
            o.provider_key
            for o in self.observations
            if project is None or o.project == project
        }

    def users(self, project: str | None = None) -> set[int]:
        return {
            o.user_asn
            for o in self.observations
            if o.user_asn is not None and (project is None or o.project == project)
        }

    def prefixes(self, project: str | None = None) -> set[Prefix]:
        return {
            o.prefix
            for o in self.observations
            if project is None or o.project == project
        }

    def ipv4_prefixes(self, project: str | None = None) -> set[Prefix]:
        return {p for p in self.prefixes(project) if p.family == 4}

    def host_route_fraction(self) -> float:
        """Fraction of distinct blackholed IPv4 prefixes that are /32s."""
        prefixes = self.ipv4_prefixes()
        if not prefixes:
            return 0.0
        return sum(1 for p in prefixes if p.is_host_route) / len(prefixes)

    # ------------------------------------------------------------------ #
    # Uniqueness across datasets (Table 3 "#Unique" columns)
    # ------------------------------------------------------------------ #
    def _unique_to_project(self, extractor: Callable) -> dict[str, int]:
        seen_in: dict[object, set[str]] = defaultdict(set)
        for observation in self.observations:
            value = extractor(observation)
            if value is None:
                continue
            seen_in[value].add(observation.project)
        unique: dict[str, int] = defaultdict(int)
        for value, projects in seen_in.items():
            if len(projects) == 1:
                unique[next(iter(projects))] += 1
        return dict(unique)

    def unique_providers_per_project(self) -> dict[str, int]:
        return self._unique_to_project(lambda o: o.provider_key)

    def unique_users_per_project(self) -> dict[str, int]:
        return self._unique_to_project(lambda o: o.user_asn)

    def unique_prefixes_per_project(self) -> dict[str, int]:
        return self._unique_to_project(lambda o: o.prefix)

    # ------------------------------------------------------------------ #
    # Direct feeds (providers with a direct session at a collector)
    # ------------------------------------------------------------------ #
    def direct_feed_fraction(
        self,
        collector_peer_asns: dict[str, set[int]],
        collector_ixps: dict[str, set[str]],
        project: str | None = None,
    ) -> float:
        """Fraction of visible providers with a direct BGP feed.

        ``collector_peer_asns`` maps project -> peer ASNs with sessions;
        ``collector_ixps`` maps project -> IXP names where the project has a
        collector.  An ISP provider has a direct feed when its ASN peers
        with the project; an IXP provider when the project collects at it.
        """
        providers = {
            (o.provider_key, o.provider_asn, o.ixp_name)
            for o in self.observations
            if project is None or o.project == project
        }
        if not providers:
            return 0.0
        if project is None:
            peer_asns = set().union(*collector_peer_asns.values()) if collector_peer_asns else set()
            ixps = set().union(*collector_ixps.values()) if collector_ixps else set()
        else:
            peer_asns = collector_peer_asns.get(project, set())
            ixps = collector_ixps.get(project, set())
        direct = 0
        for _key, provider_asn, ixp_name in providers:
            if ixp_name is not None and ixp_name in ixps:
                direct += 1
            elif provider_asn is not None and provider_asn in peer_asns:
                direct += 1
        return direct / len(providers)

    # ------------------------------------------------------------------ #
    # Per-provider / per-user prefix counts (Figure 5)
    # ------------------------------------------------------------------ #
    def prefixes_per_provider(self) -> dict[str, int]:
        grouped: dict[str, set[Prefix]] = defaultdict(set)
        for observation in self.observations:
            grouped[observation.provider_key].add(observation.prefix)
        return {provider: len(prefixes) for provider, prefixes in grouped.items()}

    def prefixes_per_user(self) -> dict[int, int]:
        grouped: dict[int, set[Prefix]] = defaultdict(set)
        for observation in self.observations:
            if observation.user_asn is not None:
                grouped[observation.user_asn].add(observation.prefix)
        return {user: len(prefixes) for user, prefixes in grouped.items()}

    # ------------------------------------------------------------------ #
    # Detection-method and propagation statistics (Figure 7(c), Section 9)
    # ------------------------------------------------------------------ #
    def detection_method_counts(self) -> dict[DetectionMethod, int]:
        counts: dict[DetectionMethod, int] = defaultdict(int)
        for observation in self.observations:
            counts[observation.detection] += 1
        return dict(counts)

    def as_distance_histogram(self) -> dict[str, int]:
        """Histogram of collector-to-provider AS distances.

        The ``"no-path"`` bucket counts bundled detections where the
        provider is absent from the AS path.
        """
        histogram: dict[str, int] = defaultdict(int)
        for observation in self.observations:
            if observation.as_distance is None:
                histogram["no-path"] += 1
            else:
                histogram[str(observation.as_distance)] += 1
        return dict(histogram)

    def bundled_fraction(self) -> float:
        """Fraction of observations detected only thanks to bundling."""
        if not self.observations:
            return 0.0
        bundled = sum(
            1 for o in self.observations if o.detection is DetectionMethod.BUNDLED
        )
        return bundled / len(self.observations)

    # ------------------------------------------------------------------ #
    # Longitudinal activity (Figure 4)
    # ------------------------------------------------------------------ #
    def daily_activity(
        self, start: float, end: float, horizon: float | None = None
    ) -> list[DailyActivity]:
        """Per-day counts of active providers, users and prefixes.

        An observation is active on a day when its [start, end) interval
        intersects the day; observations still active at the end of the
        stream are treated as ending at ``horizon`` (default: ``end``).
        """
        horizon = end if horizon is None else horizon
        first_day = day_start(start)
        day_count = max(0, int((day_start(end) - first_day) // SECONDS_PER_DAY) + 1)
        providers: list[set[str]] = [set() for _ in range(day_count)]
        users: list[set[int]] = [set() for _ in range(day_count)]
        prefixes: list[set[Prefix]] = [set() for _ in range(day_count)]

        for observation in self.observations:
            obs_start = max(observation.start_time, start)
            obs_end = observation.end_time if observation.end_time is not None else horizon
            obs_end = min(obs_end, end)
            if obs_end < obs_start:
                continue
            first = int((day_start(obs_start) - first_day) // SECONDS_PER_DAY)
            last = int((day_start(obs_end) - first_day) // SECONDS_PER_DAY)
            for day_index in range(max(0, first), min(day_count - 1, last) + 1):
                providers[day_index].add(observation.provider_key)
                if observation.user_asn is not None:
                    users[day_index].add(observation.user_asn)
                prefixes[day_index].add(observation.prefix)

        return [
            DailyActivity(
                day=first_day + index * SECONDS_PER_DAY,
                providers=len(providers[index]),
                users=len(users[index]),
                prefixes=len(prefixes[index]),
            )
            for index in range(day_count)
        ]

    # ------------------------------------------------------------------ #
    # Grouping by an arbitrary provider/user classifier (Tables 2 and 4)
    # ------------------------------------------------------------------ #
    def by_provider_type(
        self, classify: Callable[[BlackholingObservation], str]
    ) -> dict[str, dict[str, int]]:
        """Providers / users / prefixes per provider type.

        ``classify`` maps an observation to a type label (e.g. via PeeringDB
        with CAIDA fallback, IXPs labelled ``"IXP"``).
        """
        providers: dict[str, set[str]] = defaultdict(set)
        users: dict[str, set[int]] = defaultdict(set)
        prefixes: dict[str, set[Prefix]] = defaultdict(set)
        for observation in self.observations:
            label = classify(observation)
            providers[label].add(observation.provider_key)
            if observation.user_asn is not None:
                users[label].add(observation.user_asn)
            prefixes[label].add(observation.prefix)
        return {
            label: {
                "providers": len(providers[label]),
                "users": len(users[label]),
                "prefixes": len(prefixes[label]),
            }
            for label in providers
        }

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.observations)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"InferenceReport(observations={len(self.observations)}, "
            f"providers={len(self.providers())}, users={len(self.users())}, "
            f"prefixes={len(self.prefixes())})"
        )
