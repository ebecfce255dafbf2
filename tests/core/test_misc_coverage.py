"""Targeted tests for small public APIs not covered elsewhere."""

import pytest

from repro.core.exposure import ExposureTimeline
from repro.core.history import PassiveDnsDb
from repro.core.report import (
    render_fig5_pause_cdf,
    render_fig9_exposure,
    render_table5_ip_unchanged,
)
from repro.core.study import StudyConfig, StudyReport

from ..tables import collector_for


def _empty_report() -> StudyReport:
    return StudyReport(
        config=StudyConfig(study_days=5),
        population_size=100,
        scale_factor=10_000.0,
    )


class TestRendererEdgeCases:
    def test_table5_not_collected(self):
        assert "not collected" in render_table5_ip_unchanged(_empty_report())

    def test_fig9_not_collected(self):
        assert "not collected" in render_fig9_exposure(_empty_report())

    def test_fig5_no_pauses(self):
        text = render_fig5_pause_cdf(_empty_report())
        assert "no completed pauses observed" in text

    def test_empty_report_totals(self):
        report = _empty_report()
        assert report.cloudflare_totals == {"hidden": 0, "verified": 0}
        assert report.incapsula_totals == {"hidden": 0, "verified": 0}

    def test_ground_truth_average_empty(self):
        averages = _empty_report().ground_truth_daily_average()
        assert all(value == 0.0 for value in averages.values())


class TestExposureAccessors:
    def test_week_accessor_copies(self):
        timeline = ExposureTimeline()
        timeline.record_week({"a"})
        week = timeline.week(0)
        week.add("b")
        assert timeline.week(0) == {"a"}

    def test_num_weeks(self):
        timeline = ExposureTimeline()
        assert timeline.num_weeks == 0
        timeline.record_week(set())
        assert timeline.num_weeks == 1

    def test_summary_of_empty_timeline(self):
        summary = ExposureTimeline().summary()
        assert summary.total_distinct == 0
        assert summary.average_new_per_week == 0.0


class TestPassiveDnsAccessors:
    def test_first_seen_none_when_empty(self):
        assert PassiveDnsDb().first_seen("www.x.com") is None

    def test_first_seen_returns_oldest(self, world_factory):
        world = world_factory(population_size=40, seed=95)
        site = next(
            s for s in world.population if s.alive and not s.multicdn
        )
        db = PassiveDnsDb()
        collector = collector_for(world)
        db.observe(collector.collect([str(site.www)], day=3))
        new_ip = site.hosting.move_origin(site.origin)
        site.hosting.set_www_a(site.www, new_ip)
        db.observe(collector.collect([str(site.www)], day=9))
        first = db.first_seen(site.www)
        assert first is not None and first.day == 3
        assert len(db.history(site.www)) == 2


class TestCliFailurePaths:
    def test_scan_without_customers(self, capsys):
        from repro.cli import main

        # A population too small to produce any Cloudflare NS customer.
        code = main(["scan", "--population", "12", "--seed", "1",
                     "--warmup", "1"])
        out = capsys.readouterr().out
        if code == 1:
            assert "no nameservers harvested" in out
        else:
            assert "hidden=" in out
