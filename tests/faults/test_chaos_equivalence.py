"""The chaos-equivalence guarantee at the study level.

Faults within the retry budget (``lossy-default``) must leave every
measured artifact byte-identical to a fault-free run — the Table VI
hidden-record sets and Fig. 9 exposure durations in particular.  Faults
above the budget (``heavy-loss``) must degrade explicitly (UNMEASURED
counts, quarantine) without any exception escaping ``SixWeekStudy.run``.
"""

import pytest

from repro.core.study import SixWeekStudy, StudyConfig
from repro.world import SimulatedInternet, WorldConfig

POPULATION = 120
SEED = 2018


def small_config():
    return StudyConfig(warmup_days=10, study_days=14)


def run_study(fault_profile=None):
    world = SimulatedInternet(WorldConfig(population_size=POPULATION, seed=SEED))
    if fault_profile is not None:
        world.install_faults(fault_profile)
    return SixWeekStudy(world, small_config()).run()


def hidden_record_sets(report):
    """Table VI artifact: the (www, address) hidden set per scan week."""
    return [
        sorted((str(h.www), str(h.address)) for h in weekly.hidden)
        for weekly in report.cloudflare_weekly
    ]


@pytest.fixture(scope="module")
def baseline():
    return run_study()


class TestEquivalenceWithinBudget:
    @pytest.fixture(scope="class")
    def chaotic(self):
        return run_study("lossy-default")

    def test_hidden_record_sets_byte_identical(self, baseline, chaotic):
        assert hidden_record_sets(chaotic) == hidden_record_sets(baseline)
        assert chaotic.cloudflare_totals == baseline.cloudflare_totals
        assert chaotic.incapsula_totals == baseline.incapsula_totals

    def test_exposure_durations_byte_identical(self, baseline, chaotic):
        assert chaotic.cloudflare_exposure == baseline.cloudflare_exposure

    def test_observations_and_behaviors_identical(self, baseline, chaotic):
        assert [list(t.observations()) for t in chaotic.days] == [
            list(t.observations()) for t in baseline.days
        ]
        assert chaotic.behaviors == baseline.behaviors

    def test_no_degradation_recorded(self, chaotic):
        assert chaotic.total_unmeasured == 0
        assert chaotic.partial_days == []
        assert chaotic.skipped_scan_weeks == []
        assert chaotic.quarantined_nameservers == []


class TestDegradationAboveBudget:
    @pytest.fixture(scope="class")
    def degraded(self):
        # Must not raise: per-site failures downgrade to UNMEASURED.
        return run_study("heavy-loss")

    def test_unmeasured_days_recorded(self, degraded):
        assert degraded.total_unmeasured > 0
        assert degraded.partial_days  # at least one partial day
        assert len(degraded.unmeasured_daily_counts) == degraded.config.study_days

    def test_study_still_produces_series(self, degraded):
        assert len(degraded.days) == degraded.config.study_days
        assert all(
            len(table) == degraded.population_size for table in degraded.days
        )


def test_fault_free_baseline_has_no_degradation(baseline):
    assert baseline.total_unmeasured == 0
    assert baseline.quarantined_nameservers == []
    assert baseline.skipped_scan_weeks == []
