"""Checkpointed execution of the six-week study.

The study runs between *checkpoint barriers*: barrier 0 sits after
warm-up and before study day 0, barrier ``k`` after study day ``k-1``
completes, up to barrier ``study_days`` just before the post-loop
analyses.  At each barrier the runtime is serialized, the snapshot is
made atomically durable, and a journal record commits it — then the
next day runs.

A crash anywhere leaves the journal ending at the last *committed*
barrier.  :func:`resume_study` rebuilds the world from the manifest's
inputs, replays the world's (measurement-independent) dynamics up to
the snapshot's day, verifies the replayed clock landed exactly where
the snapshot says it should, overlays the measurement state, and
drives the remaining barriers.  The kill-matrix harness asserts the
result is byte-identical to an uninterrupted run, for a crash at every
barrier in both crash modes.

Both entry points are one-worker runs of the study driver in
:mod:`repro.shard.runner`, whose single barrier loop and barrier commit
serve checkpointed and sharded studies alike.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..core.study import StudyConfig, StudyReport
from ..faults.crash import CrashPlan
from ..scenario import Scenario
# Not called here: kept importable because campaignbench/spans.py patches it.
from .serde import serialize_runtime

__all__ = ["run_checkpointed_study", "resume_study"]


def run_checkpointed_study(
    checkpoint_dir: "Path | str",
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    fault_profile: Optional[str] = None,
    traffic_profile: Optional[str] = None,
    attack_profile: Optional[str] = None,
    crash_plan: Optional[CrashPlan] = None,
) -> StudyReport:
    """Run the study from scratch, committing a barrier per day.

    ``crash_plan`` injects a deterministic :class:`SimulatedCrash` at a
    chosen barrier — the kill-matrix's fault kind.  The checkpoint
    directory must be fresh; an existing run is resumed with
    :func:`resume_study`, never silently overwritten.
    """
    # Imported here: repro.shard.runner imports this package's serde and
    # store modules, and the package __init__ pulls in this module.
    from ..shard.runner import run_campaign

    return run_campaign(
        scenario=Scenario.of(
            fault_profile=fault_profile,
            traffic_profile=traffic_profile,
            attack_profile=attack_profile,
        ),
        population=population,
        seed=seed,
        config=config,
        checkpoint_dir=checkpoint_dir,
        crash_plan=crash_plan,
    )


def resume_study(
    checkpoint_dir: "Path | str",
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    fault_profile: Optional[str] = None,
    traffic_profile: Optional[str] = None,
    attack_profile: Optional[str] = None,
    crash_plan: Optional[CrashPlan] = None,
) -> StudyReport:
    """Continue a crashed run on the exact deterministic trajectory.

    Refuses loudly when the supplied inputs differ from the manifest
    (:class:`CheckpointMismatchError`), when a snapshot or mid-journal
    record is damaged (:class:`CheckpointCorruptError`), or when the
    replayed world's clock drifts from the snapshot's recorded position
    — drift means world dynamics were not reproduced and the resumed
    measurements would silently diverge.  The run's layout is read from
    its manifest, so a sharded campaign resumes too (inline).
    """
    from ..shard.runner import resume_campaign

    return resume_campaign(
        checkpoint_dir,
        scenario=Scenario.of(
            fault_profile=fault_profile,
            traffic_profile=traffic_profile,
            attack_profile=attack_profile,
        ),
        population=population,
        seed=seed,
        config=config,
        crash_plan=crash_plan,
    )
