"""Tests for the table/figure analyses over the small end-to-end scenario."""

from collections import Counter

import pytest

from repro.analysis import fig6
from repro.analysis.common import cdf_points, format_table
from repro.analysis.pipeline import StudyPipeline
from repro.stream.source import CollectorSource
from repro.topology.types import NetworkType


class TestCommonHelpers:
    def test_cdf_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points[0] == (1.0, pytest.approx(1 / 3))
        assert points[-1] == (3.0, pytest.approx(1.0))
        assert cdf_points([]) == []

    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5


class TestTables:
    def test_table1_totals_consistent(self, small_dataset):
        res = StudyPipeline(small_dataset).result().analysis("table1")
        rows = res.rows
        assert {row.source for row in rows} == {"cdn", "pch", "ris", "routeviews", "Total"}
        total = next(row for row in rows if row.source == "Total")
        per_source = [row for row in rows if row.source != "Total"]
        assert total.prefixes <= sum(row.prefixes for row in per_source)
        assert all(row.unique_prefixes <= row.prefixes for row in per_source)
        assert all(row.ip_peers >= row.as_peers > 0 for row in per_source)
        assert res.meta["ipv4_fraction"] > 0.95
        assert "Table 1" in res.render()

    def test_table1_analysis_walks_each_source_once(self, small_dataset, monkeypatch):
        walks = Counter()
        peer_sets = CollectorSource.peer_sets

        def counting(source):
            walks[id(source)] += 1
            return peer_sets(source)

        monkeypatch.setattr(CollectorSource, "peer_sets", counting)
        res = StudyPipeline(small_dataset).result().analysis("table1")
        assert walks == Counter({id(source): 1 for source in small_dataset.sources})
        monkeypatch.undo()
        unpatched = StudyPipeline(small_dataset).result().analysis("table1")
        assert res.rows == unpatched.rows
        assert res.meta["ipv4_fraction"] == unpatched.meta["ipv4_fraction"]

    def test_table2_matches_dictionary_totals(self, study_result):
        res = study_result.analysis("table2")
        rows = res.rows
        total = next(row for row in rows if row.network_type == "TOTAL unique")
        assert total.communities == study_result.dictionary.community_count()
        transit = next(
            row for row in rows if row.network_type == NetworkType.TRANSIT_ACCESS.value
        )
        # Transit/access dominates the dictionary, as in the paper.
        assert transit.networks >= max(
            row.networks for row in rows if row.network_type not in ("TOTAL unique",)
        )
        assert "Table 2" in res.render()

    def test_table3_per_source_visibility(self, study_result):
        res = study_result.analysis("table3")
        rows = res.rows
        all_row = next(row for row in rows if row.source == "ALL")
        per_source = [row for row in rows if row.source != "ALL"]
        assert all_row.providers >= max(row.providers for row in per_source)
        assert all_row.prefixes >= max(row.prefixes for row in per_source)
        for row in rows:
            assert 0.0 <= row.direct_feed_fraction <= 1.0
            assert row.unique_providers <= row.providers
        (summary,) = study_result.analysis("table3_summary").rows
        assert 0.0 < summary["provider_visibility_fraction"] <= 1.0
        assert summary["host_route_fraction"] > 0.9
        assert "Table 3" in res.render()

    def test_table4_type_breakdown(self, study_result):
        res = study_result.analysis("table4")
        rows = res.rows
        labels = {row.network_type for row in rows}
        assert NetworkType.TRANSIT_ACCESS.value in labels
        assert NetworkType.IXP.value in labels
        total = next(row for row in rows if row.network_type == "Total (unique)")
        transit = next(
            row for row in rows if row.network_type == NetworkType.TRANSIT_ACCESS.value
        )
        assert transit.providers >= total.providers * 0.5
        assert total.prefixes == len(study_result.report.ipv4_prefixes())
        assert "Table 4" in res.render()


class TestFigures:
    def test_fig2_separation(self, study_result):
        (summary,) = study_result.analysis("fig2").rows
        # Blackhole communities concentrate on more-specifics than /24 while
        # non-blackhole communities concentrate on /24-or-shorter prefixes;
        # a handful of low-volume communities keeps the means below 1.0.
        assert summary.blackhole_more_specific_fraction > 0.75
        assert (
            summary.blackhole_more_specific_fraction
            + summary.non_blackhole_at_most_24_fraction
            > 1.5
        )
        assert summary.inferred_communities >= 1
        surface = study_result.analysis("fig2_surface").rows
        labels = {row["label"] for row in surface}
        assert "blackhole" in labels and "non-blackhole" in labels
        assert all(0.0 <= row["fraction"] <= 1.0 for row in surface)

    def test_fig2_inferred_matches_undocumented_ground_truth(self, study_result):
        truth = {
            service.provider_asn
            for service in study_result.topology.undocumented_services()
        }
        inferred = study_result.inferred_dictionary.providers()
        # Every inferred provider is a genuine undocumented blackholing provider.
        assert inferred <= truth

    def test_fig4_daily_series(self, study_result):
        daily = study_result.analysis("fig4").rows
        window_days = (study_result.dataset.end - study_result.dataset.start) / 86_400
        assert len(daily) in (int(window_days), int(window_days) + 1)
        assert all(d.prefixes >= 0 for d in daily)
        assert max(d.prefixes for d in daily) > 0
        growth_res = study_result.analysis("fig4_growth")
        growth = growth_res.meta["growth"]
        assert growth.prefixes_end >= 0
        spikes = growth_res.rows
        assert isinstance(spikes, tuple)

    def test_fig5_cdfs(self, study_result):
        res = study_result.analysis("fig5")
        cdfs: dict[tuple[str, str], list] = {}
        for row in res.rows:
            cdfs.setdefault((row["plot"], row["group"]), []).append(
                (row["value"], row["cdf"])
            )
        provider_cdfs = {g: p for (plot, g), p in cdfs.items() if plot == "providers"}
        assert "Transit/Access" in provider_cdfs
        for points in provider_cdfs.values():
            assert points[-1][1] == pytest.approx(1.0)
        user_cdfs = {g: p for (plot, g), p in cdfs.items() if plot == "users"}
        assert user_cdfs
        summary = res.meta["summary"]
        assert 0.0 <= summary.content_user_fraction <= 1.0
        # Content users originate a disproportionate share of prefixes.
        assert summary.content_prefix_share >= summary.content_user_fraction

    def test_fig6_countries(self, study_result):
        res = study_result.analysis("fig6")
        providers = {r["country"]: r["networks"] for r in res.rows if r["group"] == "providers"}
        users = {r["country"]: r["networks"] for r in res.rows if r["group"] == "users"}
        assert sum(providers.values()) == len(study_result.report.providers())
        assert sum(users.values()) == len(study_result.report.users())
        top = res.meta["top_user_countries"]
        assert len(top) <= fig6.TOP_COUNTRIES
        assert all(count > 0 for _, count in top)

    def test_fig7_histograms(self, study_result):
        res = study_result.analysis("fig7")
        by_plot: dict[str, dict] = {}
        for row in res.rows:
            by_plot.setdefault(row["plot"], {})[row["bucket"]] = row["count"]
        services = by_plot["services"]
        assert services.get("HTTP", 0) > 0
        per_event = by_plot["providers_per_event"]
        assert per_event.get(1, 0) >= max(
            count for providers, count in per_event.items() if providers > 1
        )
        distances = by_plot["as_distance"]
        assert "no-path" in distances
        summary = res.meta["summary"]
        assert 0.2 <= summary.no_path_fraction <= 0.8
        assert summary.http_prefix_fraction > 0.3

    def test_fig8_durations(self, study_result):
        res = study_result.analysis("fig8")
        summary = res.meta["summary"]
        assert summary.ungrouped_events > summary.grouped_events
        # The ON/OFF pattern dominates ungrouped durations but disappears
        # after grouping (Section 9).
        assert summary.ungrouped_under_one_minute_fraction > 0.5
        assert summary.grouped_under_one_minute_fraction < 0.2
        series = {row["series"] for row in res.rows}
        assert "ungrouped" in series and "grouped" in series
        histogram = res.meta["histogram_hours"]
        assert sum(histogram.values()) == summary.ungrouped_events

    def test_fig9_efficacy(self, study_result):
        res = study_result.analysis("fig9")
        assert res.rows
        assert {row["metric"] for row in res.rows} == {
            "ip_after_vs_during",
            "ip_neighbour_vs_during",
            "as_after_vs_during",
            "as_neighbour_vs_during",
        }
        summary = res.meta["summary"]
        assert summary.measurements > 0
        assert summary.mean_ip_hop_shortening >= 0.0
        assert 0.0 <= summary.shortened_path_fraction <= 1.0

    def test_fig9_ixp_traffic(self, study_result):
        series = study_result.analysis("fig9_traffic").rows
        if not series:
            pytest.skip("no IXP-targeted blackholing in this scenario")
        for prefix_series in series:
            assert prefix_series["dropped"] + prefix_series["forwarded"] > 0
        # At least one of the top prefixes has a majority of its traffic dropped.
        assert any(s["dropped_fraction"] > 0.5 for s in series)
