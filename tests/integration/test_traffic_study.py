"""End-to-end studies under background-traffic profiles.

The ISSUE's acceptance criteria, at test scale: an equivalence profile
(or no profile) leaves the study byte-identical to a traffic-free run; a
degradation profile completes with throttled sweeps surfacing as
UNMEASURED observations and partial scans — never as fabricated
transitions; the traffic tallies agree across shard counts; and a
checkpointed traffic run crash-resumes onto its exact trajectory.
"""

import pytest

from repro.checkpoint import (
    canonical_json,
    run_checkpointed_study,
    study_artifact,
)
from repro.core.export import report_to_dict
from repro.core.study import SixWeekStudy, StudyConfig
from repro.errors import CheckpointMismatchError, SimulatedCrash
from repro.faults.crash import CrashPlan
from repro.shard import resume_campaign, run_sharded_study
from repro.world import SimulatedInternet, WorldConfig

SMALL = dict(population=150, seed=11)


def small_config(days=3, warmup=8):
    return StudyConfig(warmup_days=warmup, study_days=days)


def run_study(population, seed, config, traffic=None):
    world = SimulatedInternet(
        WorldConfig(population_size=population, seed=seed)
    )
    study = SixWeekStudy(world, config)
    runtime = study.begin()
    if traffic is not None:
        # Post-warmup, mirroring the checkpointed plane's _begin.
        world.install_traffic(traffic)
    while not runtime.finished:
        study.run_day(runtime)
    return study.finalise(runtime)


def behavior_signatures(report):
    return {
        (b.www, b.kind.name, b.from_provider, b.to_provider)
        for b in report.behaviors
    }


class TestEquivalence:
    def test_steady_profile_is_byte_identical_to_traffic_off(self):
        config = small_config()
        off = run_study(config=config, **SMALL)
        steady = run_study(config=config, traffic="steady", **SMALL)
        assert report_to_dict(steady) == report_to_dict(off)
        assert canonical_json(study_artifact(steady)) == canonical_json(
            study_artifact(off)
        )


class TestDegradation:
    @pytest.fixture(scope="class")
    def pair(self):
        config = small_config(days=28, warmup=10)
        off = run_study(600, 11, config)
        flood = run_study(600, 11, config, traffic="flood")
        return off, flood

    def test_flood_study_completes_with_unmeasured_days(self, pair):
        _, flood = pair
        assert flood.total_unmeasured > 0
        assert flood.partial_days

    def test_throttled_sweeps_become_partial_scans(self, pair):
        _, flood = pair
        assert flood.partial_scan_weeks
        assert all(count > 0 for count in flood.partial_scan_weeks.values())

    def test_no_fabricated_transitions(self, pair):
        off, flood = pair
        # The traffic-off run over the identical world trajectory is the
        # superset of everything observable: throttling may *lose*
        # transitions (unmeasured days) but must never invent one.
        assert behavior_signatures(off)  # non-vacuous at this scale
        assert behavior_signatures(flood) <= behavior_signatures(off)

    def test_degradation_is_exported(self, pair):
        _, flood = pair
        payload = report_to_dict(flood)
        degradation = payload["degradation"]
        assert degradation["total_unmeasured"] == flood.total_unmeasured
        assert degradation["partial_scan_weeks"] == {
            str(week): count
            for week, count in flood.partial_scan_weeks.items()
        }


class TestShardEquivalence:
    def test_traffic_tallies_agree_across_shard_counts(self):
        config = small_config()
        artifacts = {
            count: canonical_json(
                study_artifact(
                    run_sharded_study(
                        config=config,
                        traffic_profile="surge",
                        shard_count=count,
                        mode="inline",
                        **SMALL,
                    )
                )
            )
            for count in (1, 2, 4)
        }
        assert artifacts[1] == artifacts[2] == artifacts[4]

    def test_sharded_matches_monolithic_under_traffic(self):
        config = small_config()
        monolithic = run_study(config=config, traffic="surge", **SMALL)
        sharded = run_sharded_study(
            config=config,
            traffic_profile="surge",
            shard_count=2,
            mode="inline",
            **SMALL,
        )
        assert canonical_json(study_artifact(sharded)) == canonical_json(
            study_artifact(monolithic)
        )


class TestCheckpointWithTraffic:
    INPUTS = dict(SMALL, config=small_config(), traffic_profile="surge")

    def test_crash_resume_stays_on_trajectory(self, tmp_path):
        reference = canonical_json(
            study_artifact(
                run_checkpointed_study(tmp_path / "ref", **self.INPUTS)
            )
        )
        with pytest.raises(SimulatedCrash):
            run_checkpointed_study(
                tmp_path / "crash",
                crash_plan=CrashPlan(at_barrier=1, mode="after-commit"),
                **self.INPUTS,
            )
        resumed = canonical_json(
            study_artifact(resume_campaign(tmp_path / "crash", **self.INPUTS))
        )
        assert resumed == reference

    def test_resume_without_the_profile_is_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_checkpointed_study(
                tmp_path / "crash",
                crash_plan=CrashPlan(at_barrier=1, mode="after-commit"),
                **self.INPUTS,
            )
        mismatched = dict(self.INPUTS, traffic_profile=None)
        with pytest.raises(CheckpointMismatchError):
            resume_campaign(tmp_path / "crash", **mismatched)

    def test_resume_under_a_different_profile_is_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_checkpointed_study(
                tmp_path / "crash",
                crash_plan=CrashPlan(at_barrier=1, mode="after-commit"),
                **self.INPUTS,
            )
        mismatched = dict(self.INPUTS, traffic_profile="flood")
        with pytest.raises(CheckpointMismatchError):
            resume_campaign(tmp_path / "crash", **mismatched)
