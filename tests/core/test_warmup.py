"""``SixWeekStudy.begin`` completes the warm-up rather than repeating it.

The engine counts the observation intervals it has run; ``begin`` runs
only the warm-up days that count is short of.  That is what lets a
shard worker begin on a copy of the coordinator's already-warm world
without stepping it another ``warmup_days``.
"""

import pytest

from repro.clock import SECONDS_PER_DAY
from repro.core.study import SixWeekStudy, StudyConfig
from repro.world import SimulatedInternet, WorldConfig

WARMUP_DAYS = 6


def _world(jitter_hours: int = 0) -> SimulatedInternet:
    world = SimulatedInternet(WorldConfig(population_size=40, seed=5))
    world.engine.interval_jitter_hours = jitter_hours
    return world


def _begin(world: SimulatedInternet):
    return SixWeekStudy(
        world, StudyConfig(warmup_days=WARMUP_DAYS, study_days=1)
    ).begin()


class TestWarmupCompletion:
    def test_a_fresh_world_runs_every_warmup_day(self):
        world = _world()
        runtime = _begin(world)
        assert world.engine.days_run == WARMUP_DAYS
        assert runtime.study_start_day == world.clock.day == WARMUP_DAYS

    @pytest.mark.parametrize("stepped", [1, WARMUP_DAYS - 1])
    def test_a_partly_warm_world_runs_only_the_missing_days(self, stepped):
        world = _world()
        world.engine.run_days(stepped)
        _begin(world)
        assert world.engine.days_run == WARMUP_DAYS
        assert world.clock.day == WARMUP_DAYS

    @pytest.mark.parametrize("stepped", [WARMUP_DAYS, WARMUP_DAYS + 3])
    def test_a_warm_world_runs_none(self, stepped):
        world = _world()
        world.engine.run_days(stepped)
        day = world.clock.day
        runtime = _begin(world)
        assert world.engine.days_run == stepped
        assert runtime.study_start_day == world.clock.day == day

    def test_the_count_is_intervals_not_clock_days_under_jitter(self):
        world = _world(jitter_hours=10)
        world.engine.run_days(2)
        _begin(world)
        assert world.engine.days_run == WARMUP_DAYS
        # The intervals were not 24 h each, so the clock cannot stand in
        # for the count.
        assert world.clock.now != WARMUP_DAYS * SECONDS_PER_DAY

    def test_a_manual_warmup_with_zero_warmup_days_is_untouched(self):
        world = _world()
        world.engine.run_days(3)
        SixWeekStudy(world, StudyConfig(warmup_days=0, study_days=1)).begin()
        assert world.engine.days_run == 3
