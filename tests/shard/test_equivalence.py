"""Sharded-vs-monolithic equivalence: the tentpole's byte-identity.

The merged artifact — every E1 daily collection plus the full E8
report, canonically encoded — must be byte-identical to the monolithic
run's whatever the shard count, the executor (inline objects or forked
processes), and whether the campaign ran straight through or crashed
and resumed.
"""

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore, canonical_json, study_artifact
from repro.core.study import SixWeekStudy, StudyConfig
from repro.errors import SimulatedCrash
from repro.faults.crash import CrashPlan
from repro.scenario import Scenario
from repro.shard import runner as runner_module
from repro.shard import (
    resume_campaign,
    run_campaign,
    run_sharded_study,
    shard_directory,
)
from repro.shard.merge import fold_barrier
from repro.world import SimulatedInternet, WorldConfig

from .conftest import POPULATION, SEED, STUDY_DAYS, WARMUP_DAYS, small_config


#: Scenarios whose sharded artifacts equal the monolithic one at this
#: shape (docs/SCALING.md lists the profiles and shapes where they do not).
PLANE_SCENARIOS = {
    "lossy-default": Scenario.of(fault_profile="lossy-default"),
    "ns-outage": Scenario.of(fault_profile="ns-outage"),
    "regional-blackout": Scenario.of(fault_profile="regional-blackout"),
    "surge+campaign": Scenario.of(traffic_profile="surge", attack_profile="campaign"),
}

#: Study lengths for scenarios whose fault window opens after the last
#: day of ``small_config()`` (ns-outage darkens the fleet in week 3).
_CONFIGS = {"ns-outage": StudyConfig(warmup_days=WARMUP_DAYS, study_days=16)}


def _latest_barriers(directory):
    """The newest barrier each of a two-shard campaign's stores committed."""
    return [
        CheckpointStore.open(shard_directory(directory, index, 2)).latest()["barrier"]
        for index in range(2)
    ]


def _monolithic_under(scenario: Scenario, config: StudyConfig):
    """The hook-less study with ``scenario``'s planes installed post-warm-up."""
    world = SimulatedInternet(WorldConfig(population_size=POPULATION, seed=SEED))
    study = SixWeekStudy(world, config)
    runtime = study.begin()
    scenario.install(world)
    while not runtime.finished:
        study.run_day(runtime)
    return world, study.finalise(runtime)


def _uneven_commits_then_two_resumes(directory, resume_mode):
    """Crash two inline shards unevenly at barrier 2, resume twice.

    The first resume (in ``resume_mode``) crashes after committing
    barrier 4; the second finishes the campaign.
    """
    inputs = dict(population=POPULATION, seed=SEED, config=small_config())
    k = 2
    with pytest.raises(SimulatedCrash):
        run_campaign(
            shard_count=2,
            checkpoint_dir=directory,
            crash_plan=CrashPlan(at_barrier=k, mode="after-commit"),
            **inputs,
        )
    assert _latest_barriers(directory) == [k, k - 1]
    with pytest.raises(SimulatedCrash):
        resume_campaign(
            directory,
            mode=resume_mode,
            crash_plan=CrashPlan(at_barrier=k + 2, mode="after-commit"),
            **inputs,
        )
    # Inline, shard 0's crash stops shard 1 before it commits; forked
    # workers each commit and crash on their own.
    expected = [k + 2, k + 1] if resume_mode == "inline" else [k + 2, k + 2]
    assert _latest_barriers(directory) == expected
    return resume_campaign(directory, mode=resume_mode, **inputs)


def _recording_folds(monkeypatch):
    """Record ``(barrier, days held)`` after each coordinator fold."""
    folds = []

    def recording(runtime, deltas):
        fold_barrier(runtime, deltas)
        report = runtime.report
        held = {len(report.days), len(report.unmeasured_daily_counts)}
        assert len(held) == 1
        folds.append((deltas[0]["barrier"], held.pop()))

    monkeypatch.setattr(runner_module, "fold_barrier", recording)
    return folds


class TestStreamedBarriers:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_after_barrier_k_the_coordinator_holds_k_days(
        self, monolithic_artifact, monkeypatch, mode
    ):
        folds = _recording_folds(monkeypatch)
        report = run_sharded_study(
            population=POPULATION,
            seed=SEED,
            config=small_config(),
            shard_count=2,
            mode=mode,
        )
        assert folds == [(k, k) for k in range(STUDY_DAYS + 1)]
        assert canonical_json(study_artifact(report)) == monolithic_artifact

    def test_a_resume_s_first_fold_holds_the_days_before_its_seek(
        self, monolithic_artifact, monkeypatch, tmp_path
    ):
        directory = tmp_path / "campaign"
        inputs = dict(population=POPULATION, seed=SEED, config=small_config())
        with pytest.raises(SimulatedCrash):
            run_campaign(
                shard_count=2,
                mode="process",
                checkpoint_dir=directory,
                crash_plan=CrashPlan(at_barrier=5, mode="after-commit"),
                **inputs,
            )
        folds = _recording_folds(monkeypatch)
        report = resume_campaign(directory, mode="process", **inputs)
        assert folds == [(k, k) for k in range(5, STUDY_DAYS + 1)]
        assert canonical_json(study_artifact(report)) == monolithic_artifact


class TestShardedEquivalenceUnderPlanes:
    @pytest.mark.parametrize("name", sorted(PLANE_SCENARIOS))
    def test_two_inline_shards_match_the_monolithic_run(self, name):
        scenario = PLANE_SCENARIOS[name]
        config = _CONFIGS.get(name, small_config())
        world, monolithic = _monolithic_under(scenario, config)
        # The planes must bite, or the comparison proves nothing.
        if scenario.fault is not None:
            assert world.fabric.planes["fault"].metrics.snapshot(prefix="faults")
        else:
            assert monolithic.total_unmeasured > 0
            assert monolithic.attack_events
        sharded = run_campaign(
            **scenario.identity(),
            population=POPULATION,
            seed=SEED,
            config=config,
            shard_count=2,
            mode="inline",
        )
        assert canonical_json(study_artifact(sharded)) == canonical_json(
            study_artifact(monolithic)
        )


class TestShardedEquivalence:
    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_inline_sharding_is_byte_identical(
        self, monolithic_artifact, shard_count
    ):
        report = run_sharded_study(
            population=POPULATION,
            seed=SEED,
            config=small_config(),
            shard_count=shard_count,
            mode="inline",
        )
        assert canonical_json(study_artifact(report)) == monolithic_artifact

    def test_forked_processes_are_byte_identical(self, monolithic_artifact):
        report = run_sharded_study(
            population=POPULATION,
            seed=SEED,
            config=small_config(),
            shard_count=2,
            mode="process",
        )
        assert canonical_json(study_artifact(report)) == monolithic_artifact

    def test_crashed_and_resumed_campaign_is_byte_identical(
        self, monolithic_artifact, tmp_path
    ):
        directory = tmp_path / "campaign"
        with pytest.raises(SimulatedCrash):
            run_sharded_study(
                population=POPULATION,
                seed=SEED,
                config=small_config(),
                shard_count=2,
                mode="inline",
                checkpoint_dir=directory,
                crash_plan=CrashPlan(at_barrier=2, mode="after-commit"),
            )
        report = resume_campaign(
            directory,
            population=POPULATION,
            seed=SEED,
            config=small_config(),
            mode="inline",
        )
        assert canonical_json(study_artifact(report)) == monolithic_artifact

    def test_uneven_commits_then_a_second_resume_is_byte_identical(
        self, monolithic_artifact, tmp_path
    ):
        # Shard 0 commits barrier k and crashes before shard 1 commits
        # it.  The first resume seeks both to k-1, so shard 0 re-crosses
        # k without committing; its next delta must start at k, not at
        # the last barrier it committed.  Only a second resume, which
        # folds that delta, shows the difference.
        report = _uneven_commits_then_two_resumes(tmp_path / "campaign", "inline")
        assert canonical_json(study_artifact(report)) == monolithic_artifact

    def test_uneven_commits_then_a_second_resume_in_forked_workers(
        self, monolithic_artifact, tmp_path
    ):
        # The same chain, resumed by forked workers: each resume's first
        # barrier ships the days before its seek whole, over the pipes.
        report = _uneven_commits_then_two_resumes(tmp_path / "campaign", "process")
        assert canonical_json(study_artifact(report)) == monolithic_artifact

    @pytest.mark.parametrize(
        "crash_plan",
        [
            CrashPlan(at_barrier=2, mode="before-commit"),
            CrashPlan(at_barrier=5, mode="after-commit"),
        ],
        ids=["before-commit-2", "after-commit-5"],
    )
    def test_crashed_and_resumed_forked_campaign_is_byte_identical(
        self, monolithic_artifact, tmp_path, crash_plan
    ):
        directory = tmp_path / "campaign"
        with pytest.raises(SimulatedCrash):
            run_sharded_study(
                population=POPULATION,
                seed=SEED,
                config=small_config(),
                shard_count=2,
                mode="process",
                checkpoint_dir=directory,
                crash_plan=crash_plan,
            )
        report = resume_campaign(
            directory,
            population=POPULATION,
            seed=SEED,
            config=small_config(),
            mode="process",
        )
        assert canonical_json(study_artifact(report)) == monolithic_artifact

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        population=st.integers(min_value=20, max_value=60),
        shard_count=st.integers(min_value=2, max_value=5),
    )
    def test_property_merge_is_partition_independent(
        self, seed, population, shard_count
    ):
        config = StudyConfig(warmup_days=3, study_days=3)
        world = SimulatedInternet(
            WorldConfig(population_size=population, seed=seed)
        )
        monolithic = canonical_json(
            study_artifact(SixWeekStudy(world, config).run())
        )
        sharded = run_sharded_study(
            population=population,
            seed=seed,
            config=config,
            shard_count=shard_count,
            mode="inline",
        )
        assert canonical_json(study_artifact(sharded)) == monolithic


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only forked workers inherit the coordinator's world",
)
def test_forked_workers_inherit_the_one_world_build(tmp_path, monkeypatch):
    """The coordinator builds and warms the world; its forks measure on
    copies of it instead of building their own."""
    builds = tmp_path / "builds"
    original = SimulatedInternet.__init__

    def recording_init(self, *args, **kwargs):
        with open(builds, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        original(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedInternet, "__init__", recording_init)
    run_sharded_study(
        population=POPULATION,
        seed=SEED,
        config=small_config(),
        shard_count=2,
        mode="process",
    )
    assert builds.read_text().split() == [str(os.getpid())]
