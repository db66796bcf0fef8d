"""End-to-end scenario simulation.

:class:`ScenarioSimulator` builds everything the measurement study needs,
in dependency order:

1. the Internet topology and its documentation corpus;
2. the collector platforms and their regular-routing table dumps;
3. the attack timeline (with a warm-up period before the observation window
   so some blackholings are already active in the initial table dumps);
4. the blackholing requests operators issue, and the per-collector BGP
   update streams observing them (plus background churn);
5. the :class:`ScenarioDataset` bundling it all, ready to be streamed into
   the inference engine.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from repro.attacks.timeline import AttackTimeline, generate_timeline
from repro.bgp.message import BgpMessage, BgpUpdate
from repro.bgp.rib import Rib
from repro.gcpause import paused_gc
from repro.registry.corpus import DocumentationCorpus, build_corpus
from repro.routing.collectors import (
    CollectorPlatform,
    FeedBuilder,
    build_default_platforms,
)
from repro.routing.propagation import RoutePropagator
from repro.stream.merger import BgpStream
from repro.stream.source import CollectorSource
from repro.topology.generator import InternetTopology, TopologyGenerator
from repro.workload.behavior import BlackholingRequest, OperatorBehaviorModel
from repro.workload.config import ScenarioConfig
from repro.workload.observation import ObservationSynthesizer

__all__ = ["ScenarioDataset", "ScenarioSimulator", "WARMUP_SECONDS"]

#: Attacks are generated this long before the observation window starts so
#: that the initial table dumps contain already-active blackholings.
WARMUP_SECONDS = 2 * 86_400


@dataclass
class ScenarioDataset:
    """Everything one simulated measurement campaign produced."""

    config: ScenarioConfig
    topology: InternetTopology
    corpus: DocumentationCorpus
    platforms: list[CollectorPlatform]
    ribs: dict[str, Rib]
    sources: list[CollectorSource]
    requests: list[BlackholingRequest]
    timeline: AttackTimeline
    start: float
    end: float
    message_count: int = 0

    # ------------------------------------------------------------------ #
    def bgp_stream(self, projects: set[str] | None = None, filters=()) -> BgpStream:
        """A BGPStream-like view over (a subset of) the collector sources."""
        sources = self.sources
        if projects is not None:
            sources = [source for source in sources if source.project in projects]
        return BgpStream(sources, filters=list(filters))

    def projects(self) -> set[str]:
        return {source.project for source in self.sources}

    def collector_peer_asns(self) -> dict[str, set[int]]:
        """Per-project set of peer ASNs with a direct collector session."""
        result: dict[str, set[int]] = defaultdict(set)
        for platform in self.platforms:
            result[platform.project] |= platform.peer_asns()
        return dict(result)

    def collector_ixps(self) -> dict[str, set[str]]:
        """Per-project set of IXPs at which the project has a collector."""
        result: dict[str, set[str]] = defaultdict(set)
        for platform in self.platforms:
            for collector in platform.collectors:
                for session in collector.sessions:
                    if session.ixp_name is not None:
                        result[platform.project].add(session.ixp_name)
        return dict(result)

    def requests_active_between(
        self, start: float, end: float
    ) -> list[BlackholingRequest]:
        return [
            request
            for request in self.requests
            if request.start_time < end and request.end_time > start
        ]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ScenarioDataset(ases={len(self.topology.ases)}, "
            f"requests={len(self.requests)}, messages={self.message_count})"
        )


class ScenarioSimulator:
    """Builds a :class:`ScenarioDataset` from a :class:`ScenarioConfig`."""

    def __init__(self, config: ScenarioConfig | None = None) -> None:
        self.config = config or ScenarioConfig.small()

    # ------------------------------------------------------------------ #
    @paused_gc()
    def generate(self) -> ScenarioDataset:
        config = self.config
        start, end = config.start, config.end

        topology = TopologyGenerator(config.topology).generate()
        corpus = build_corpus(topology, seed=config.seed)
        platforms = build_default_platforms(topology, seed=config.seed)
        propagator = RoutePropagator(topology.graph)
        feed_builder = FeedBuilder(topology, propagator)
        ribs = feed_builder.build_all_ribs(platforms, timestamp=start)

        timeline = generate_timeline(
            topology, start - WARMUP_SECONDS, end, config.attacks
        )
        behavior = OperatorBehaviorModel(topology, config)
        requests: list[BlackholingRequest] = []
        for event in timeline.events:
            requests.extend(behavior.requests_for_event(event))

        synthesizer = ObservationSynthesizer(topology, platforms, config)
        updates_by_collector: dict[str, list[BgpMessage]] = defaultdict(list)
        message_count = 0
        for message in self._window_messages(synthesizer, requests, ribs, start, end):
            updates_by_collector[message.collector].append(message)
            message_count += 1

        sources = self._build_sources(platforms, ribs, updates_by_collector)
        return ScenarioDataset(
            config=config,
            topology=topology,
            corpus=corpus,
            platforms=platforms,
            ribs=ribs,
            sources=sources,
            requests=requests,
            timeline=timeline,
            start=start,
            end=end,
            message_count=message_count,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _window_messages(
        synthesizer: ObservationSynthesizer,
        requests: list[BlackholingRequest],
        ribs: dict[str, Rib],
        start: float,
        end: float,
    ) -> Iterator[BgpMessage]:
        """All in-window update messages, emitted lazily.

        The synthesizer's per-request and background generators are chained
        without ever materialising the combined message list.  Pre-window
        history folds into the collector's table dump as a side effect (the
        paper's dump initialisation with "starting time zero").
        """
        for request in requests:
            for message in synthesizer.messages_for_request(request, horizon=end):
                if message.timestamp < start:
                    rib = ribs.get(message.collector)
                    if rib is not None:
                        rib.apply(message)
                    continue
                yield message
        for message in synthesizer.background_messages(start, end):
            if isinstance(message, BgpUpdate):
                yield message

    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_sources(
        platforms: list[CollectorPlatform],
        ribs: dict[str, Rib],
        updates_by_collector: dict[str, list[BgpMessage]],
    ) -> list[CollectorSource]:
        sources: list[CollectorSource] = []
        for platform in platforms:
            for collector in platform.collectors:
                sources.append(
                    CollectorSource(
                        project=platform.project,
                        collector=collector.name,
                        rib=ribs.get(collector.name),
                        updates=sorted(
                            updates_by_collector.get(collector.name, []),
                            key=lambda m: m.timestamp,
                        ),
                    )
                )
        return sources
