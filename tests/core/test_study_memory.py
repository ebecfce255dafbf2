"""A study day's retained state does not grow with the population."""

import gc

from repro.core.study import SixWeekStudy, StudyConfig
from repro.world import SimulatedInternet, WorldConfig

#: GC-tracked objects one study day may leave behind.  A day table is a
#: few untracked column buffers plus its name and provider lists; the
#: rest is constant bookkeeping.  Holding one object per site (p300)
#: would blow through it.
_PER_DAY_BOUND = 50


def test_a_study_day_leaves_a_constant_number_of_tracked_objects():
    world = SimulatedInternet(WorldConfig(population_size=300, seed=2018))
    study = SixWeekStudy(world, StudyConfig(warmup_days=4, study_days=6))
    runtime = study.begin()
    gc.collect()
    counts = [len(gc.get_objects())]
    while not runtime.finished:
        study.run_day(runtime)
        gc.collect()
        counts.append(len(gc.get_objects()))
    growth = [after - before for before, after in zip(counts, counts[1:])]
    # Day 0 carries the first weekly scan, whose reports are kept whole.
    assert max(growth[1:]) < _PER_DAY_BOUND, growth
    assert len(runtime.report.days) == 6
