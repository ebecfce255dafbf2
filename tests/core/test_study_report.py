"""Integration tests for the study orchestrator and report rendering."""

import pytest

from repro.core.report import (
    render_fig2_adoption,
    render_fig3_behaviors,
    render_fig5_pause_cdf,
    render_fig6_cloudflare,
    render_fig7_vantage,
    render_fig9_exposure,
    render_full_report,
    render_table5_ip_unchanged,
    render_table6_residual,
)
from repro.core.study import SixWeekStudy, StudyConfig
from repro.world import SimulatedInternet, WorldConfig
from repro.world.admin import BehaviorKind


@pytest.fixture(scope="module")
def study_result():
    world = SimulatedInternet(WorldConfig(population_size=900, seed=47))
    config = StudyConfig(warmup_days=35, study_days=15, scan_every_days=7)
    report = SixWeekStudy(world, config).run()
    return world, report


class TestStudyRun:
    def test_daily_series_lengths(self, study_result):
        _, report = study_result
        assert len(report.days) == 15
        assert all(len(table) == report.population_size for table in report.days)

    def test_adoption_rate_near_paper(self, study_result):
        _, report = study_result
        assert 0.10 < report.overall_adoption_rate < 0.20

    def test_top_sites_adopt_more(self, study_result):
        _, report = study_result
        assert report.top_sites_adoption_rate > report.overall_adoption_rate

    def test_cloudflare_dominates(self, study_result):
        _, report = study_result
        assert max(
            report.adoption_by_provider, key=report.adoption_by_provider.get
        ) == "cloudflare"

    def test_cloudflare_rerouting_split(self, study_result):
        _, report = study_result
        assert report.cloudflare_ns_share > report.cloudflare_cname_share
        assert report.cloudflare_ns_share + report.cloudflare_cname_share == pytest.approx(1.0)

    def test_weekly_scans_ran(self, study_result):
        _, report = study_result
        assert len(report.cloudflare_weekly) == 3  # days 0, 7, 14
        assert len(report.incapsula_weekly) == 3

    def test_nameservers_harvested(self, study_result):
        _, report = study_result
        assert report.harvested_nameservers > 0

    def test_scan_spread_over_five_pops(self, study_result):
        _, report = study_result
        assert len(report.scan_pop_query_counts) == 5

    def test_ip_change_collected(self, study_result):
        _, report = study_result
        assert report.ip_change is not None

    def test_ground_truth_events_windowed(self, study_result):
        world, report = study_result
        study_start = 35
        assert all(e.day >= study_start for e in report.ground_truth_events)

    def test_measured_behaviors_match_ground_truth_totals(self, study_result):
        """Measurement recovers planted dynamics (within detection limits:
        the final day's events are never observed)."""
        _, report = study_result
        measured = {kind: 0 for kind in BehaviorKind}
        for behavior in report.behaviors:
            measured[behavior.kind] += 1
        truth = {kind: 0 for kind in BehaviorKind}
        observable = {e.day for e in report.ground_truth_events}
        last_day = 35 + 15 - 1
        for event in report.ground_truth_events:
            if event.day < last_day:
                truth[event.kind] += 1
        for kind in (BehaviorKind.JOIN, BehaviorKind.LEAVE):
            assert abs(measured[kind] - truth[kind]) <= max(2, truth[kind] * 0.5)

    def test_exposure_summary_present(self, study_result):
        _, report = study_result
        assert report.cloudflare_exposure is not None
        assert report.cloudflare_exposure.weeks == 3

    def test_usage_dynamics_can_be_disabled(self):
        world = SimulatedInternet(WorldConfig(population_size=150, seed=48))
        config = StudyConfig(
            warmup_days=2, study_days=3, run_usage_dynamics=False,
            run_residual_scans=False,
        )
        report = SixWeekStudy(world, config).run()
        assert report.behaviors == []
        assert report.cloudflare_weekly == []
        assert report.ip_change is None


class TestReportRendering:
    @pytest.mark.parametrize(
        "renderer,needle",
        [
            (render_fig2_adoption, "Fig. 2"),
            (render_fig3_behaviors, "Fig. 3"),
            (render_fig5_pause_cdf, "Fig. 5"),
            (render_fig6_cloudflare, "Fig. 6"),
            (render_fig7_vantage, "Fig. 7"),
            (render_table5_ip_unchanged, "Table V"),
            (render_table6_residual, "Table VI"),
            (render_fig9_exposure, "Fig. 9"),
        ],
    )
    def test_each_renderer(self, study_result, renderer, needle):
        _, report = study_result
        text = renderer(report)
        assert needle in text

    def test_full_report_contains_everything(self, study_result):
        _, report = study_result
        text = render_full_report(report)
        for needle in ("Fig. 2", "Fig. 3", "Fig. 5", "Fig. 6", "Fig. 7",
                       "Table V", "Table VI", "Fig. 9"):
            assert needle in text

    def test_table6_mentions_both_providers(self, study_result):
        _, report = study_result
        text = render_table6_residual(report)
        assert "cloudflare TOTAL" in text
        assert "incapsula TOTAL" in text
