"""World footprint: the bytes a built, warmed world holds per site.

Builds one ``SimulatedInternet`` at ``--population N`` (seed 2018) and
runs ``SixWeekStudy.begin`` (the 56-day warm-up plus the campaign's
measurement state), twice, each in a fresh interpreter:

* traced — ``tracemalloc`` counts the bytes still allocated once
  ``begin`` returns (imports excluded), and so ``bytes_per_site``;
* untraced — the build's wall time and the process's peak RSS
  (``VmHWM``), free of tracemalloc's own overhead.

Fresh interpreters matter: names are interned process-wide, so a second
build in one process would find them already allocated.  The slope
between two populations (say p3000 and p9000) is the marginal cost of
one more site.

Run from the repo root; prints one JSON object:

    PYTHONPATH=src python benchmarks/world_footprint.py --population 3000

Not a pytest bench and never gated: memory depends on the interpreter,
and the structural properties behind the numbers are tier-1 tests.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

SEED = 2018
WARMUP_DAYS = 56


def _measure(population: int, traced: bool) -> dict:
    """Build and warm one world; runs in a fresh interpreter."""
    import tracemalloc

    from repro.core.study import SixWeekStudy, StudyConfig
    from repro.world.config import WorldConfig
    from repro.world.internet import SimulatedInternet

    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    world = SimulatedInternet(WorldConfig(population_size=population, seed=SEED))
    runtime = SixWeekStudy(world, StudyConfig(warmup_days=WARMUP_DAYS)).begin()
    elapsed = time.perf_counter() - start
    if traced:
        # ``world`` and ``runtime`` are still referenced here.
        return {"traced_bytes": tracemalloc.get_traced_memory()[0]}
    # On Linux ``ru_maxrss`` is the process's VmHWM, in KB.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"build_s": round(elapsed, 3), "vm_hwm_mb": round(peak, 1)}


def _in_fresh_interpreter(*args) -> dict:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_measure, args)


def run(population: int) -> dict:
    traced = _in_fresh_interpreter(population, True)
    untraced = _in_fresh_interpreter(population, False)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "bench": "world_footprint",
        "population": population,
        "seed": SEED,
        "warmup_days": WARMUP_DAYS,
        "traced_bytes": traced["traced_bytes"],
        "bytes_per_site": round(traced["traced_bytes"] / population, 1),
        **untraced,
        "python": platform.python_version(),
        "cpus": cpus,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--population", type=int, default=3000)
    args = parser.parse_args(argv)
    if args.population < 1:
        parser.error("--population must be positive")
    print(json.dumps(run(args.population), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
