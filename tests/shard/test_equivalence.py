"""Sharded-vs-monolithic equivalence: the tentpole's byte-identity.

The merged artifact — every E1 daily collection plus the full E8
report, canonically encoded — must be byte-identical to the monolithic
run's whatever the shard count, the executor (inline objects or forked
processes), and whether the campaign ran straight through or crashed
and resumed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import canonical_json, study_artifact
from repro.core.study import SixWeekStudy, StudyConfig
from repro.errors import SimulatedCrash
from repro.faults.crash import CrashPlan
from repro.scenario import Scenario
from repro.shard import resume_campaign, run_campaign, run_sharded_study
from repro.world import SimulatedInternet, WorldConfig

from .conftest import POPULATION, SEED, small_config


#: Scenarios whose sharded artifacts equal the monolithic one at this
#: shape (docs/SCALING.md lists the profiles and shapes where they do not).
PLANE_SCENARIOS = {
    "lossy-default": Scenario.of(fault_profile="lossy-default"),
    "surge+campaign": Scenario.of(traffic_profile="surge", attack_profile="campaign"),
}


def _monolithic_under(scenario: Scenario):
    """The hook-less study with ``scenario``'s planes installed post-warm-up."""
    world = SimulatedInternet(WorldConfig(population_size=POPULATION, seed=SEED))
    study = SixWeekStudy(world, small_config())
    runtime = study.begin()
    scenario.install(world)
    while not runtime.finished:
        study.run_day(runtime)
    return world, study.finalise(runtime)


class TestShardedEquivalenceUnderPlanes:
    @pytest.mark.parametrize("name", sorted(PLANE_SCENARIOS))
    def test_two_inline_shards_match_the_monolithic_run(self, name):
        scenario = PLANE_SCENARIOS[name]
        world, monolithic = _monolithic_under(scenario)
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
            config=small_config(),
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
