"""Integration tests: full pipeline against ground truth, MRT round trip,
per-dataset visibility, and ablation switches."""

from repro.analysis.pipeline import StudyPipeline
from repro.core.events import DetectionMethod
from repro.mrt.writer import write_rib, write_updates
from repro.stream.source import MrtSource
from repro.stream.merger import BgpStream
from repro.core.inference import BlackholingInferenceEngine


class TestInferenceAgainstGroundTruth:
    def test_inferred_prefixes_are_subset_of_ground_truth(self, small_dataset, study_result):
        truth_prefixes = {request.prefix for request in small_dataset.requests}
        inferred = study_result.report.prefixes()
        assert inferred
        assert inferred <= truth_prefixes

    def test_most_visible_requests_are_detected(self, small_dataset, study_result):
        truth_prefixes = {request.prefix for request in small_dataset.requests}
        inferred = study_result.report.prefixes()
        assert len(inferred) / len(truth_prefixes) > 0.5

    def test_inferred_users_match_ground_truth(self, small_dataset, study_result):
        truth_users = {request.user_asn for request in small_dataset.requests}
        inferred_users = study_result.report.users()
        overlap = truth_users & inferred_users
        assert len(overlap) / len(inferred_users) > 0.85

    def test_inferred_providers_offer_blackholing_in_ground_truth(
        self, small_dataset, study_result
    ):
        topology = small_dataset.topology
        for provider_key in study_result.report.providers():
            if provider_key.startswith("AS"):
                service = topology.service_for(int(provider_key[2:]))
                assert service is not None
            else:
                ixp = topology.ixp_by_name(provider_key)
                assert ixp.offers_blackholing

    def test_detection_methods_cover_isp_and_ixp_paths(self, study_result):
        methods = set(study_result.report.detection_method_counts())
        assert DetectionMethod.ON_PATH in methods
        assert DetectionMethod.BUNDLED in methods
        assert DetectionMethod.IXP_PEER_IP in methods

    def test_bundling_contributes_large_share(self, study_result):
        # The paper attributes about half of all inferences to bundling.
        assert 0.2 <= study_result.report.bundled_fraction() <= 0.8

    def test_host_route_dominance(self, study_result):
        assert study_result.report.host_route_fraction() > 0.9


class TestDatasetVisibility:
    def test_each_project_sees_a_subset(self, small_dataset, study_result):
        all_prefixes = study_result.report.prefixes()
        for project in small_dataset.projects():
            subset = study_result.report.prefixes(project)
            assert subset <= all_prefixes

    def test_single_project_pipeline(self, small_dataset):
        result = StudyPipeline(small_dataset, projects={"pch"}).run()
        assert result.report.projects() <= {"pch"}
        assert len(result.report.prefixes()) > 0


class TestAblations:
    def test_disabling_bundling_reduces_visibility(self, small_dataset, study_result):
        without = StudyPipeline(small_dataset, enable_bundling=False).run()
        assert len(without.report.prefixes()) <= len(study_result.report.prefixes())
        assert without.report.bundled_fraction() == 0.0

    def test_inferred_dictionary_extends_coverage(self, small_dataset, study_result):
        extended = StudyPipeline(small_dataset, use_inferred_dictionary=True).run()
        assert len(extended.report.providers()) >= len(study_result.report.providers())


class TestMrtRoundTripPipeline:
    def test_engine_results_identical_via_mrt_bytes(self, small_dataset, study_result):
        """Serialise one collector's feed to MRT and re-run the inference."""
        source = max(small_dataset.sources, key=lambda s: len(s))
        rib = small_dataset.ribs[source.collector]
        rib_bytes = write_rib(rib)
        update_bytes = write_updates(
            [elem.to_message() for elem in source.update_stream()]
        )
        mrt_source = MrtSource(
            source.project, source.collector, rib_bytes=rib_bytes, update_bytes=update_bytes
        )

        engine_direct = BlackholingInferenceEngine(
            study_result.dictionary, peeringdb=small_dataset.topology.peeringdb
        )
        engine_direct.run(BgpStream([source]))
        engine_mrt = BlackholingInferenceEngine(
            study_result.dictionary, peeringdb=small_dataset.topology.peeringdb
        )
        engine_mrt.run(BgpStream([mrt_source]))

        direct = {
            (o.prefix, o.peer_ip, o.provider_key, o.start_time)
            for o in engine_direct.observations()
        }
        via_mrt = {
            (o.prefix, o.peer_ip, o.provider_key, o.start_time)
            for o in engine_mrt.observations()
        }
        # Timestamps survive with microsecond precision, so allow tiny drift
        # by comparing without the start time as well when the strict
        # comparison fails.
        if direct != via_mrt:
            assert {t[:3] for t in direct} == {t[:3] for t in via_mrt}
        assert len(engine_mrt.observations()) == len(engine_direct.observations())


class TestReproducibility:
    def test_pipeline_is_deterministic(self, small_dataset):
        first = StudyPipeline(small_dataset).run()
        second = StudyPipeline(small_dataset).run()
        assert len(first.observations) == len(second.observations)
        assert first.report.providers() == second.report.providers()
        assert first.report.prefixes() == second.report.prefixes()
