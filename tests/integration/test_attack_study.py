"""End-to-end studies under DDoS attack profiles.

The ISSUE's acceptance criteria, at test scale: the ``quiet`` profile
(an installed plane with an empty schedule) leaves the study
byte-identical to an attack-free run; a six-week ``campaign`` records
at least one emergent JOIN wave and at least one LEAVE/SWITCH wave in
the exported report; attack tallies agree byte for byte across shard
counts 1, 2 and 4; and a checkpointed attack run crash-resumes onto
its exact trajectory while profile mismatches are refused.
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


def small_config(days=10, warmup=8):
    return StudyConfig(warmup_days=warmup, study_days=days)


def run_study(population, seed, config, attacks=None):
    world = SimulatedInternet(
        WorldConfig(population_size=population, seed=seed)
    )
    study = SixWeekStudy(world, config)
    runtime = study.begin()
    if attacks is not None:
        # Post-warmup, mirroring the checkpointed plane's _begin.
        world.install_attacks(attacks)
    while not runtime.finished:
        study.run_day(runtime)
    return study.finalise(runtime)


class TestEquivalence:
    def test_quiet_profile_is_byte_identical_to_attacks_off(self):
        config = small_config()
        off = run_study(config=config, **SMALL)
        quiet = run_study(config=config, attacks="quiet", **SMALL)
        # The report's attacks block differs by design (the plane IS
        # installed); everything measured must not.
        off_payload = report_to_dict(off)
        quiet_payload = report_to_dict(quiet)
        assert quiet_payload.pop("attacks") == {
            "profile": "quiet",
            "events": [],
            "tallies": {"days": config.study_days},
        }
        assert off_payload.pop("attacks") is None
        assert quiet_payload == off_payload
        # Byte-compare the kill-matrix artifact too, minus the
        # by-design attacks block inside the embedded export.
        quiet_artifact = study_artifact(quiet)
        off_artifact = study_artifact(off)
        quiet_artifact["e8"].pop("attacks")
        off_artifact["e8"].pop("attacks")
        assert canonical_json(quiet_artifact) == canonical_json(off_artifact)


class TestEmergentWaves:
    @pytest.fixture(scope="class")
    def campaign_report(self):
        # Full six-week horizon: the overwhelming provider strike needs
        # enrolled customers and late-campaign days to land its churn.
        return run_study(
            400, 2018, StudyConfig(warmup_days=10, study_days=42),
            attacks="campaign",
        )

    def test_campaign_records_join_waves(self, campaign_report):
        tallies = campaign_report.attack_tallies
        joins = sum(
            count
            for key, count in tallies.items()
            if key.startswith("waves.join.")
        )
        assert joins >= 1

    def test_campaign_records_leave_or_switch_waves(self, campaign_report):
        tallies = campaign_report.attack_tallies
        churn = tallies.get("waves.leave", 0) + tallies.get("waves.switch", 0)
        assert churn >= 1

    def test_report_carries_the_schedule(self, campaign_report):
        assert campaign_report.attack_profile == "campaign"
        assert campaign_report.attack_events
        for event in campaign_report.attack_events:
            assert {"event_id", "kind", "target_kind", "target",
                    "start_day", "duration_days", "magnitude_gbps",
                    "overwhelms"} <= set(event)

    def test_export_carries_the_attacks_block(self, campaign_report):
        payload = report_to_dict(campaign_report)
        attacks = payload["attacks"]
        assert attacks["profile"] == "campaign"
        assert attacks["events"] == campaign_report.attack_events
        assert attacks["tallies"] == campaign_report.attack_tallies

    def test_flood_windows_degrade_measurement(self, campaign_report):
        # Floods open outage windows on victims' infrastructure; the
        # study must degrade explicitly (UNMEASURED days), never crash.
        assert campaign_report.total_unmeasured > 0


class TestShardEquivalence:
    def test_attack_tallies_agree_across_shard_counts(self):
        config = small_config()
        artifacts = {
            count: canonical_json(
                study_artifact(
                    run_sharded_study(
                        config=config,
                        attack_profile="campaign",
                        shard_count=count,
                        mode="inline",
                        **SMALL,
                    )
                )
            )
            for count in (1, 2, 4)
        }
        assert artifacts[1] == artifacts[2] == artifacts[4]

    def test_sharded_matches_monolithic_under_attack(self):
        config = small_config()
        monolithic = run_study(config=config, attacks="campaign", **SMALL)
        sharded = run_sharded_study(
            config=config,
            attack_profile="campaign",
            shard_count=2,
            mode="inline",
            **SMALL,
        )
        assert canonical_json(study_artifact(sharded)) == canonical_json(
            study_artifact(monolithic)
        )

    def test_forked_workers_match_inline_under_attack(self):
        config = small_config()
        inline = run_sharded_study(
            config=config,
            attack_profile="skirmish",
            shard_count=2,
            mode="inline",
            **SMALL,
        )
        forked = run_sharded_study(
            config=config,
            attack_profile="skirmish",
            shard_count=2,
            mode="process",
            **SMALL,
        )
        assert canonical_json(study_artifact(forked)) == canonical_json(
            study_artifact(inline)
        )


class TestCheckpointWithAttacks:
    INPUTS = dict(SMALL, config=small_config(), attack_profile="campaign")

    def test_crash_resume_stays_on_trajectory(self, tmp_path):
        reference = canonical_json(
            study_artifact(
                run_checkpointed_study(tmp_path / "ref", **self.INPUTS)
            )
        )
        with pytest.raises(SimulatedCrash):
            run_checkpointed_study(
                tmp_path / "crash",
                crash_plan=CrashPlan(at_barrier=3, mode="after-commit"),
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
        mismatched = dict(self.INPUTS, attack_profile=None)
        with pytest.raises(CheckpointMismatchError):
            resume_campaign(tmp_path / "crash", **mismatched)

    def test_resume_under_a_different_profile_is_refused(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_checkpointed_study(
                tmp_path / "crash",
                crash_plan=CrashPlan(at_barrier=1, mode="after-commit"),
                **self.INPUTS,
            )
        mismatched = dict(self.INPUTS, attack_profile="blitz")
        with pytest.raises(CheckpointMismatchError):
            resume_campaign(tmp_path / "crash", **mismatched)
