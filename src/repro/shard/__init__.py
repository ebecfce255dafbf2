"""Sharded execution of the six-week study with a byte-identical merge.

The measurement campaign partitions cleanly: world dynamics are global
and measurement-independent, per-site measurement touches only that
site's slice of state, and the one cross-site dependency (the weekly
scan's campaign-wide nameserver harvest) is a broadcast.  This package
exploits that — :func:`~repro.core.study.shard_bounds` computes the
partition, :mod:`~repro.shard.runner` drives N lockstep workers
(in-process or forked), and :mod:`~repro.shard.merge` folds their
payloads into study artifacts byte-identical to a monolithic run's,
whatever the shard count.  docs/SCALING.md walks through the argument.
"""

from .merge import merge_payloads, overlay_merged, worker_payload
from .runner import (
    DEFAULT_OP_TIMEOUT,
    InlineExecutor,
    ProcessExecutor,
    ShardWorker,
    WorkerSpec,
    resume_campaign,
    run_campaign,
    run_sharded_study,
    shard_directory,
)

__all__ = [
    "DEFAULT_OP_TIMEOUT",
    "worker_payload",
    "merge_payloads",
    "overlay_merged",
    "WorkerSpec",
    "ShardWorker",
    "InlineExecutor",
    "ProcessExecutor",
    "shard_directory",
    "run_campaign",
    "resume_campaign",
    "run_sharded_study",
]
