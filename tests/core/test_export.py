"""Tests for study-report JSON export."""

import json

import pytest

from repro.core.export import report_to_dict, save_report
from repro.core.study import SixWeekStudy, StudyConfig
from repro.world import SimulatedInternet, WorldConfig


@pytest.fixture(scope="module")
def small_report():
    world = SimulatedInternet(WorldConfig(population_size=300, seed=83))
    config = StudyConfig(warmup_days=20, study_days=8)
    return SixWeekStudy(world, config).run()


class TestExport:
    def test_dict_is_json_serialisable(self, small_report):
        payload = report_to_dict(small_report)
        text = json.dumps(payload)  # must not raise
        assert json.loads(text) == payload

    def test_key_artifacts_present(self, small_report):
        payload = report_to_dict(small_report)
        for key in ("fig2", "fig3", "fig5", "fig6", "fig7", "table5",
                    "table6", "fig9"):
            assert key in payload, key
        assert payload["schema_version"] == 3
        assert payload["attacks"] is None
        assert payload["population_size"] == 300

    def test_fig3_includes_ground_truth(self, small_report):
        payload = report_to_dict(small_report)
        assert set(payload["fig3"]["behavior_averages"]) == {
            "JOIN", "LEAVE", "PAUSE", "RESUME", "SWITCH",
        }
        assert set(payload["fig3"]["ground_truth_averages"]) <= {
            "JOIN", "LEAVE", "PAUSE", "RESUME", "SWITCH",
        }

    def test_table6_totals_match_report(self, small_report):
        payload = report_to_dict(small_report)
        assert payload["table6"]["cloudflare_totals"] == small_report.cloudflare_totals

    def test_round_trip_through_disk(self, small_report, tmp_path):
        path = save_report(small_report, tmp_path / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded == report_to_dict(small_report)

    def test_weekly_scan_rows(self, small_report):
        payload = report_to_dict(small_report)
        weekly = payload["table6"]["cloudflare_weekly"]
        assert len(weekly) == len(small_report.cloudflare_weekly)
        for row in weekly:
            assert row["retrieved"] >= row["hidden"]
