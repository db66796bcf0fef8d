"""Tests for the blackholing inference engine state machine."""

import pytest

from repro.bgp.community import Community
from repro.core.cleaning import BgpCleaner
from repro.core.events import EndCause
from repro.core.inference import TABLE_DUMP_START, BlackholingInferenceEngine
from repro.dictionary.model import BlackholeDictionary, CommunityEntry, CommunitySource
from repro.netutils.prefixes import Prefix
from repro.bgp.attributes import AsPath
from repro.bgp.community import CommunitySet
from repro.stream.record import ElemType, StreamElem

PROVIDER = 3356
USER = 64500


def _dictionary() -> BlackholeDictionary:
    return BlackholeDictionary(
        [CommunityEntry(Community(PROVIDER, 666), PROVIDER, CommunitySource.IRR)]
    )


def _elem(
    ts: float,
    elem_type: ElemType = ElemType.ANNOUNCEMENT,
    communities: tuple[str, ...] = (f"{PROVIDER}:666",),
    prefix: str = "80.81.9.9/32",
    peer_ip: str = "10.0.0.1",
) -> StreamElem:
    return StreamElem(
        timestamp=ts,
        elem_type=elem_type,
        project="ris",
        collector="rrc00",
        peer_ip=peer_ip,
        peer_as=1299,
        prefix=Prefix.from_string(prefix),
        as_path=AsPath.from_hops([1299, PROVIDER, USER]),
        communities=CommunitySet.from_strings(list(communities)),
    )


@pytest.fixture
def engine() -> BlackholingInferenceEngine:
    return BlackholingInferenceEngine(_dictionary())


class TestLifecycle:
    def test_announcement_starts_observation(self, engine):
        engine.process(_elem(100.0))
        active = engine.active_observations()
        assert len(active) == 1
        observation = active[0]
        assert observation.start_time == 100.0
        assert observation.provider_asn == PROVIDER
        assert observation.user_asn == USER
        assert observation.is_active

    def test_reannouncement_does_not_restart(self, engine):
        engine.process(_elem(100.0))
        engine.process(_elem(150.0))
        active = engine.active_observations()
        assert len(active) == 1
        assert active[0].start_time == 100.0
        assert engine.stats.observations_started == 1

    def test_explicit_withdrawal_ends_observation(self, engine):
        engine.process(_elem(100.0))
        engine.process(_elem(260.0, elem_type=ElemType.WITHDRAWAL, communities=()))
        assert not engine.active_observations()
        completed = engine.observations()
        assert len(completed) == 1
        assert completed[0].end_time == 260.0
        assert completed[0].end_cause is EndCause.EXPLICIT_WITHDRAWAL
        assert completed[0].duration == pytest.approx(160.0)

    def test_implicit_withdrawal_on_untagged_announcement(self, engine):
        engine.process(_elem(100.0))
        engine.process(_elem(300.0, communities=(f"{PROVIDER}:100",)))
        completed = engine.observations()
        assert len(completed) == 1
        assert completed[0].end_cause is EndCause.IMPLICIT_WITHDRAWAL
        assert completed[0].end_time == 300.0

    def test_untagged_announcement_for_unknown_prefix_is_ignored(self, engine):
        engine.process(_elem(100.0, communities=()))
        assert not engine.observations()

    def test_withdrawal_without_prior_blackholing_is_ignored(self, engine):
        engine.process(_elem(100.0, elem_type=ElemType.WITHDRAWAL, communities=()))
        assert not engine.observations()

    def test_on_off_pattern_creates_multiple_observations(self, engine):
        for cycle in range(3):
            base = 100.0 + cycle * 200.0
            engine.process(_elem(base))
            engine.process(_elem(base + 50.0, elem_type=ElemType.WITHDRAWAL, communities=()))
        observations = engine.observations()
        assert len(observations) == 3
        assert all(o.duration == pytest.approx(50.0) for o in observations)

    def test_finalise_closes_active_observations(self, engine):
        engine.process(_elem(100.0))
        engine.finalise(end_time=500.0)
        assert not engine.active_observations()
        observation = engine.observations()[0]
        assert observation.end_cause is EndCause.STREAM_END
        assert observation.end_time == 500.0


class TestTableDumpInitialisation:
    def test_rib_elem_starts_at_time_zero(self, engine):
        engine.process(_elem(1_000_000.0, elem_type=ElemType.RIB))
        observation = engine.active_observations()[0]
        assert observation.start_time == TABLE_DUMP_START
        assert observation.from_table_dump

    def test_dump_then_withdrawal(self, engine):
        engine.process(_elem(1_000_000.0, elem_type=ElemType.RIB))
        engine.process(_elem(1_000_100.0, elem_type=ElemType.WITHDRAWAL, communities=()))
        observation = engine.observations()[0]
        assert observation.from_table_dump
        assert observation.end_time == 1_000_100.0


class TestPerPeerTracking:
    def test_peers_tracked_independently(self, engine):
        engine.process(_elem(100.0, peer_ip="10.0.0.1"))
        engine.process(_elem(110.0, peer_ip="10.0.0.2"))
        engine.process(
            _elem(200.0, elem_type=ElemType.WITHDRAWAL, communities=(), peer_ip="10.0.0.1")
        )
        assert len(engine.active_observations()) == 1
        assert engine.active_observations()[0].peer_ip == "10.0.0.2"

    def test_active_prefixes(self, engine):
        engine.process(_elem(100.0, prefix="80.81.9.9/32"))
        engine.process(_elem(100.0, prefix="80.81.9.11/32"))
        assert engine.active_prefixes() == {
            Prefix.from_string("80.81.9.9/32"),
            Prefix.from_string("80.81.9.11/32"),
        }


class TestCleaning:
    def test_bogon_prefixes_never_tracked(self, engine):
        engine.process(_elem(100.0, prefix="10.1.2.3/32"))
        assert not engine.observations()
        assert engine.cleaner.stats.dropped_bogon == 1

    def test_too_coarse_prefix_dropped(self, engine):
        engine.process(_elem(100.0, prefix="32.0.0.0/6"))
        assert not engine.observations()
        assert engine.cleaner.stats.dropped_too_coarse == 1

    def test_cleaner_generator_interface(self):
        cleaner = BgpCleaner()
        elems = [_elem(1.0), _elem(2.0, prefix="192.168.0.1/32")]
        kept = list(cleaner.clean(elems))
        assert len(kept) == 1
        assert cleaner.stats.kept == 1
        assert cleaner.stats.dropped == 1

    def test_stats_counters(self, engine):
        engine.process(_elem(1.0))
        engine.process(_elem(2.0, elem_type=ElemType.WITHDRAWAL, communities=()))
        assert engine.stats.announcements == 1
        assert engine.stats.withdrawals == 1
        assert engine.stats.tagged_announcements == 1
        assert engine.stats.observations_started == 1
        assert engine.stats.observations_ended == 1


class TestMatcherRebuild:
    """The batch kernel's tag matcher must follow the resolver's dictionary."""

    def _batch(self, ts, communities):
        from repro.stream.batch import ElemBatch

        return ElemBatch.from_elems([_elem(ts, communities=communities)])

    def test_matcher_rebuilds_when_the_resolver_dictionary_changes(self, engine):
        other_provider = 2914
        engine.process_batch(self._batch(100.0, (f"{PROVIDER}:666",)))
        assert engine.stats.observations_started == 1

        # Swap the resolver's dictionary mid-run: communities of the OLD
        # dictionary must stop matching, communities of the NEW one must
        # start, exactly like per-elem dispatch (which always resolves
        # against the resolver's current dictionary).
        replacement = BlackholeDictionary(
            [
                CommunityEntry(
                    Community(other_provider, 666),
                    other_provider,
                    CommunitySource.IRR,
                )
            ]
        )
        engine.resolver.dictionary = replacement

        engine.process_batch(
            self._batch(200.0, (f"{other_provider}:666",))
        )
        assert engine.stats.observations_started == 2
        started = engine.active_observations()
        assert {o.provider_asn for o in started} == {PROVIDER, other_provider}

        # A community only in the old dictionary no longer matches.
        engine.process_batch(
            self._batch(300.0, (f"{PROVIDER}:666",))
        )
        assert engine.stats.observations_started == 2
