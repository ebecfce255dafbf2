"""Checkpointed execution of the six-week study.

The study runs between *checkpoint barriers*: barrier 0 sits after
warm-up and before study day 0, barrier ``k`` after study day ``k-1``
completes, up to barrier ``study_days`` just before the post-loop
analyses.  At each barrier the runtime is serialized, the snapshot is
made atomically durable, and a journal record commits it — then the
next day runs.

A crash anywhere leaves the journal ending at the last *committed*
barrier.  :func:`~repro.shard.runner.resume_campaign` rebuilds the world
from the manifest's inputs, replays the world's (measurement-independent)
dynamics up to the snapshot's day, verifies the replayed clock landed
exactly where the snapshot says it should, overlays the measurement
state, and drives the remaining barriers.  The kill-matrix harness
asserts the result is byte-identical to an uninterrupted run, for a
crash at every barrier in both crash modes.

Both verbs live in :mod:`repro.shard.runner`, whose single barrier loop
and barrier commit serve checkpointed and sharded studies alike.
"""

from __future__ import annotations

from pathlib import Path

from ..core.study import StudyReport
# Not called here: kept importable because campaignbench/spans.py patches it.
from .serde import serialize_runtime

__all__ = ["run_checkpointed_study"]


def run_checkpointed_study(
    checkpoint_dir: "Path | str", **options: object
) -> StudyReport:
    """:func:`~repro.shard.runner.run_campaign` into ``checkpoint_dir``.

    Kept under this name because the frozen campaign benchmark calls it.
    """
    # Imported here: repro.shard.runner imports this package's serde and
    # store modules, and the package __init__ pulls in this module.
    from ..shard.runner import run_campaign

    return run_campaign(checkpoint_dir=checkpoint_dir, **options)
