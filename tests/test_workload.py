"""Tests for operator behaviour, observation synthesis and scenario simulation."""

import dataclasses
import hashlib
from collections import defaultdict

from repro.attacks.timeline import AttackEvent, DurationRegime
from repro.bgp.message import BgpUpdate, BgpWithdrawal
from repro.workload.behavior import OperatorBehaviorModel
from repro.workload.config import ScenarioConfig
from repro.workload.observation import ObservationSynthesizer
from repro.workload.simulation import ScenarioSimulator


def _attack(victim: int, start: float = 0.0, duration: float = 3600.0, targets: int = 1,
            on_off: bool = False) -> AttackEvent:
    return AttackEvent(
        event_id=1,
        start_time=start,
        duration=duration,
        victim_asn=victim,
        target_count=targets,
        regime=DurationRegime.SHORT,
        on_off=on_off,
    )


class TestBehavior:
    def _victim_with_providers(self, topology):
        for asn in topology.asns():
            if topology.blackholing_providers_of(asn):
                return asn
        raise AssertionError("no AS with blackholing providers in fixture topology")

    def test_requests_reference_available_providers(self, small_dataset):
        topology = small_dataset.topology
        config = small_dataset.config
        victim = self._victim_with_providers(topology)
        model = OperatorBehaviorModel(topology, config)
        requests = model.requests_for_event(_attack(victim, targets=3))
        assert len(requests) == 3
        available = {
            (s.ixp_name or f"AS{s.provider_asn}")
            for s in topology.blackholing_providers_of(victim)
        }
        for request in requests:
            assert set(request.provider_keys) <= available
            assert request.user_asn == victim
            assert request.prefix.family == 4
            assert request.communities_by_provider.keys() == set(request.provider_keys)

    def test_prefixes_carved_from_victim_block(self, small_dataset):
        topology = small_dataset.topology
        victim = self._victim_with_providers(topology)
        model = OperatorBehaviorModel(topology, small_dataset.config)
        requests = model.requests_for_event(_attack(victim, targets=5))
        block = topology.get_as(victim).address_block
        for request in requests:
            assert block.contains(request.prefix)

    def test_mostly_host_routes(self, small_dataset):
        topology = small_dataset.topology
        victim = self._victim_with_providers(topology)
        model = OperatorBehaviorModel(topology, small_dataset.config)
        requests = []
        for index in range(40):
            requests.extend(model.requests_for_event(_attack(victim, targets=2)))
        host_routes = sum(1 for r in requests if r.prefix.is_host_route)
        assert host_routes / len(requests) > 0.9

    def test_on_off_intervals_are_short_and_ordered(self, small_dataset):
        topology = small_dataset.topology
        victim = self._victim_with_providers(topology)
        model = OperatorBehaviorModel(topology, small_dataset.config)
        requests = model.requests_for_event(
            _attack(victim, duration=2400.0, on_off=True)
        )
        intervals = requests[0].intervals
        assert len(intervals) > 1
        for (start_a, end_a), (start_b, _) in zip(intervals, intervals[1:]):
            assert end_a > start_a
            assert start_b > end_a
        assert all(end - start <= 90.0 for start, end in intervals)

    def test_event_without_providers_yields_nothing(self, small_dataset):
        topology = small_dataset.topology
        model = OperatorBehaviorModel(topology, small_dataset.config)
        isolated = [
            asn for asn in topology.asns() if not topology.blackholing_providers_of(asn)
        ]
        if isolated:
            assert model.requests_for_event(_attack(isolated[0])) == []


class TestObservationSynthesis:
    def test_messages_reference_known_collector_sessions(self, small_dataset):
        synthesizer = ObservationSynthesizer(
            small_dataset.topology, small_dataset.platforms, small_dataset.config
        )
        sessions = {
            (collector.name, session.peer_ip)
            for platform in small_dataset.platforms
            for collector in platform.collectors
            for session in collector.sessions
        }
        # Some requests are legitimately invisible (no targeted provider or
        # neighbour has a collector session); check that most are visible and
        # that every emitted message references a real session.
        visible = 0
        for request in small_dataset.requests[:20]:
            messages = list(
                synthesizer.messages_for_request(request, horizon=small_dataset.end)
            )
            if messages:
                visible += 1
            for message in messages:
                assert (message.collector, message.peer_ip) in sessions
                assert message.prefix == request.prefix
        assert visible >= 10

    def test_interval_end_produces_withdrawal_or_untagged_update(self, small_dataset):
        synthesizer = ObservationSynthesizer(
            small_dataset.topology, small_dataset.platforms, small_dataset.config
        )
        request = next(
            r for r in small_dataset.requests if r.end_time < small_dataset.end
        )
        messages = synthesizer.messages_for_request(request, horizon=small_dataset.end)
        by_session = defaultdict(list)
        for message in messages:
            by_session[(message.collector, message.peer_ip)].append(message)
        for session_messages in by_session.values():
            kinds = [type(m) for m in sorted(session_messages, key=lambda m: m.timestamp)]
            assert kinds[0] is BgpUpdate
            assert BgpWithdrawal in kinds or len(
                [k for k in kinds if k is BgpUpdate]
            ) >= 2

    def test_bundled_requests_carry_all_communities(self, small_dataset):
        synthesizer = ObservationSynthesizer(
            small_dataset.topology, small_dataset.platforms, small_dataset.config
        )
        bundled = [
            r for r in small_dataset.requests if r.bundled and len(r.provider_keys) > 1
        ]
        if not bundled:
            return
        request = bundled[0]
        observations = synthesizer.observations_for_request(request)
        assert observations
        expected = set(request.all_communities)
        assert any(set(o.communities) == expected for o in observations)


class TestScenarioSimulation:
    def test_dataset_structure(self, small_dataset):
        assert small_dataset.requests
        assert small_dataset.message_count > 0
        assert small_dataset.sources
        assert small_dataset.projects() == {"ris", "routeviews", "pch", "cdn"}
        assert small_dataset.start < small_dataset.end

    def test_update_streams_inside_window(self, small_dataset):
        for source in small_dataset.sources:
            for elem in source.update_stream():
                assert small_dataset.start <= elem.timestamp

    def test_ribs_contain_prewindow_blackholings(self, small_dataset):
        # At least one request straddling the window start appears in a dump.
        straddling = [
            r
            for r in small_dataset.requests
            if r.start_time < small_dataset.start and r.end_time > small_dataset.start
        ]
        if not straddling:
            return
        prefixes = {r.prefix for r in straddling}
        dump_prefixes = set()
        for rib in small_dataset.ribs.values():
            dump_prefixes |= rib.prefixes()
        assert prefixes & dump_prefixes

    def test_simulation_is_deterministic(self):
        left = ScenarioSimulator(ScenarioConfig.small(seed=77)).generate()
        right = ScenarioSimulator(ScenarioConfig.small(seed=77)).generate()
        assert left.message_count == right.message_count
        assert len(left.requests) == len(right.requests)
        assert [str(r.prefix) for r in left.requests] == [str(r.prefix) for r in right.requests]

    def test_collector_metadata_helpers(self, small_dataset):
        peer_asns = small_dataset.collector_peer_asns()
        assert set(peer_asns) == small_dataset.projects()
        ixps = small_dataset.collector_ixps()
        assert "pch" in ixps and ixps["pch"]


def _messages(dataset):
    """Every dump and update message of a dataset, in source order."""
    for source in dataset.sources:
        for part, messages in (("dump", source._dump), ("updates", source._updates)):
            for message in messages:
                yield part, message


def _attribute_objects(dataset):
    """(attributes, AS path, community set) of every announcement and RIB entry."""
    attributes = [m.attributes for _, m in _messages(dataset) if isinstance(m, BgpUpdate)]
    attributes += [entry.attributes for rib in dataset.ribs.values() for entry in rib]
    for value in attributes:
        yield value, value.as_path, value.communities


class TestAttributeSharing:
    """Generation interns attributes: one object per distinct value."""

    def test_one_object_per_distinct_value(self, small_dataset):
        canonical: list[dict] = [{}, {}, {}]
        for objects in _attribute_objects(small_dataset):
            for table, value in zip(canonical, objects):
                assert table.setdefault(value, value) is value
        distinct_attributes, distinct_paths, distinct_sets = map(len, canonical)
        announcements = sum(
            isinstance(m, BgpUpdate) for _, m in _messages(small_dataset)
        )
        assert 0 < distinct_attributes < announcements
        assert distinct_paths > 1 and distinct_sets > 1

    def test_generations_share_no_attribute_object(self):
        config = ScenarioConfig.small(seed=5)
        left = ScenarioSimulator(config).generate()
        right = ScenarioSimulator(config).generate()
        left_ids = {id(o) for objects in _attribute_objects(left) for o in objects}
        right_ids = {id(o) for objects in _attribute_objects(right) for o in objects}
        assert left_ids and right_ids
        assert not left_ids & right_ids
        assert [m for _, m in _messages(left)] == [m for _, m in _messages(right)]

    def test_message_stream_is_unchanged(self):
        """Every field of every message, pinned from before attributes were shared.

        Interning happens after a message's random draws, so the seeded
        stream -- timestamps, peers, prefixes, paths, communities -- must
        hash exactly as it did when each message built its own attributes.
        """
        config = dataclasses.replace(
            ScenarioConfig.small(seed=5), background_updates_per_day=60.0
        )
        dataset = ScenarioSimulator(config).generate()
        digest = hashlib.sha256()
        kinds = defaultdict(int)
        for part, m in _messages(dataset):
            kinds[type(m).__name__] += 1
            fields = [part, type(m).__name__, repr(m.timestamp), m.collector, m.peer_ip,
                      m.peer_as, str(m.prefix)]
            if isinstance(m, BgpUpdate):
                a = m.attributes
                fields += [int(a.origin), a.as_path.hops, a.next_hop, a.med, a.local_pref,
                           a.atomic_aggregate, a.aggregator, a.communities.to_strings()]
            digest.update(repr(fields).encode() + b"\n")
        assert kinds["BgpUpdate"] > 0 and kinds["BgpWithdrawal"] > 0
        assert digest.hexdigest() == (
            "21e9cc5cab225e9a47e0bbe85a184f201ce9707cba2a7314c17a8e9cd970a693"
        )
