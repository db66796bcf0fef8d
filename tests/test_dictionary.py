"""Tests for the blackhole community dictionary (NLP, scraper, builder, model)."""

from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.dictionary.builder import DictionaryBuilder
from repro.dictionary.model import BlackholeDictionary, CommunityEntry, CommunitySource
from repro.dictionary.nlp import (
    extract_community_mentions,
    is_blackholing_sentence,
    lemma,
    sentences,
    tokenize,
)
from repro.dictionary.scraper import DocumentationScraper


class TestNlp:
    def test_sentence_splitting_on_lines_and_punctuation(self):
        text = "First line\nsecond sentence. third; fourth!"
        assert len(sentences(text)) == 4

    def test_tokenize_and_lemma(self):
        tokens = tokenize("Blackholing announcements are null-routed")
        assert "blackholing" in tokens
        assert lemma("blackholing") == "blackhole"
        assert lemma("discarded") == "discard"
        assert lemma("null-route") == "null-route"

    def test_blackholing_sentences_match(self):
        positives = [
            "64500:666 - blackhole (null route) announcements",
            "Use community 64500:9999 for remotely triggered blackholing",
            "announcements tagged with 64500:66 will be null routed",
            "traffic towards tagged prefixes is discarded",
            "RTBH community: 64500:999",
        ]
        for sentence in positives:
            assert is_blackholing_sentence(sentence), sentence

    def test_non_blackholing_sentences_do_not_match(self):
        negatives = [
            "3356:666 - peering routes, do not announce to transit",
            "64500:100 - route learned from customer",
            "64500:3001 - ingress location tag",
            "set local preference 80 for 64500:80",
        ]
        for sentence in negatives:
            assert not is_blackholing_sentence(sentence), sentence

    def test_extract_community_mentions(self):
        text = (
            "64500:666 - blackhole announcements here.\n"
            "64500:100 - route learned from customer\n"
            "64500:666:1 large community triggers blackholing"
        )
        mentions = extract_community_mentions(text)
        values = {(str(m.community), m.is_blackholing) for m in mentions}
        assert ("64500:666", True) in values
        assert ("64500:100", False) in values
        assert ("64500:666:1", True) in values

    def test_invalid_community_values_skipped(self):
        mentions = extract_community_mentions("99999999999:666 blackhole")
        assert mentions == []


class TestModel:
    def _entry(self, community="64500:666", provider=64500, source=CommunitySource.IRR, ixp=None):
        return CommunityEntry(
            community=Community.from_string(community),
            provider_asn=provider,
            source=source,
            ixp_name=ixp,
        )

    def test_add_and_lookup(self):
        dictionary = BlackholeDictionary([self._entry()])
        assert dictionary.is_blackhole_community(Community(64500, 666))
        assert not dictionary.is_blackhole_community(Community(64500, 999))
        assert dictionary.provider_count() == 1
        assert dictionary.community_count() == 1

    def test_duplicate_entries_ignored(self):
        dictionary = BlackholeDictionary([self._entry(), self._entry()])
        assert len(dictionary) == 1

    def test_shared_community_is_ambiguous(self):
        dictionary = BlackholeDictionary(
            [self._entry("0:666", 100), self._entry("0:666", 200)]
        )
        assert dictionary.is_ambiguous(Community(0, 666))
        assert not dictionary.is_ambiguous(Community(64500, 666))

    def test_match_against_community_set(self):
        dictionary = BlackholeDictionary([self._entry()])
        communities = CommunitySet.from_strings(["64500:666", "64500:100"])
        assert len(dictionary.match(communities)) == 1
        assert dictionary.matched_communities(communities) == {Community(64500, 666)}

    def test_large_community_entries(self):
        entry = CommunityEntry(
            community=LargeCommunity(64500, 666, 0),
            provider_asn=64500,
            source=CommunitySource.WEB,
        )
        dictionary = BlackholeDictionary([entry])
        communities = CommunitySet([], [LargeCommunity(64500, 666, 0)])
        assert dictionary.match(communities)

    def test_merge_and_filters(self):
        documented = BlackholeDictionary([self._entry()])
        inferred = BlackholeDictionary(
            [self._entry("64700:666", 64700, CommunitySource.INFERRED)]
        )
        merged = documented.merge(inferred)
        assert merged.community_count() == 2
        assert merged.documented_only().community_count() == 1
        assert merged.inferred_only().community_count() == 1


class TestBuilder:
    def test_builder_recovers_all_documented_ground_truth(
        self, small_topology, small_corpus, small_dictionary
    ):
        ground_truth = set()
        for service in small_topology.documented_services():
            for community in service.communities:
                ground_truth.add((community, service.provider_asn))
            for large in service.large_communities:
                ground_truth.add((large, service.provider_asn))
        found = {(e.community, e.provider_asn) for e in small_dictionary.entries()}
        assert ground_truth <= found

    def test_builder_produces_no_false_positives(
        self, small_topology, small_dictionary
    ):
        truth_pairs = set()
        for service in small_topology.blackholing_services.values():
            for community in service.communities:
                truth_pairs.add((community, service.provider_asn))
            for large in service.large_communities:
                truth_pairs.add((large, service.provider_asn))
        for entry in small_dictionary.entries():
            assert (entry.community, entry.provider_asn) in truth_pairs

    def test_undocumented_services_not_in_dictionary(
        self, small_topology, small_dictionary
    ):
        for service in small_topology.undocumented_services():
            primary = service.primary_community
            if primary is None:
                continue
            providers = {
                e.provider_asn for e in small_dictionary.lookup(primary)
            }
            assert service.provider_asn not in providers

    def test_private_communications_merged(self, small_topology, small_corpus, small_dictionary):
        for asn, communities in small_corpus.private_communications.items():
            for community in communities:
                entries = small_dictionary.lookup(community)
                assert any(
                    e.provider_asn == asn and e.source is CommunitySource.PRIVATE
                    for e in entries
                )

    def test_ixp_entries_carry_ixp_name(self, small_topology, small_dictionary):
        ixp_entries = [e for e in small_dictionary.entries() if e.ixp_name]
        documented_ixps = {
            s.ixp_name
            for s in small_topology.documented_services()
            if s.is_ixp
        }
        assert {e.ixp_name for e in ixp_entries} == documented_ixps

    def test_metadata_extraction(self, small_dictionary):
        lengths = [e.max_prefix_length for e in small_dictionary.entries() if e.max_prefix_length]
        assert lengths and all(24 <= length <= 32 for length in lengths)
        scopes = {e.scope for e in small_dictionary.entries()}
        assert "global" in scopes

    def test_non_blackhole_dictionary_disjoint(self, small_corpus, small_dictionary):
        non_blackhole = DictionaryBuilder(small_corpus).build_non_blackhole_dictionary()
        assert non_blackhole
        assert not (non_blackhole & small_dictionary.communities())

    def test_prior_study_comparison(self, small_corpus, small_dictionary):
        builder = DictionaryBuilder(small_corpus)
        comparison = builder.compare_with_prior_study(small_dictionary)
        assert comparison.prior_total > 0
        assert 0.0 <= comparison.still_active_fraction <= 1.0
        assert comparison.repurposed == 0

    def test_scraper_channels(self, small_corpus):
        scraper = DocumentationScraper(small_corpus)
        channels = {m.channel for m in scraper.scrape()}
        assert channels == {"irr", "web"}
        assert scraper.blackholing_mentions()
        assert scraper.non_blackholing_mentions()
