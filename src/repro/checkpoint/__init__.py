"""Crash-safe checkpoint/resume plane for the six-week study.

See :mod:`repro.checkpoint.store` for the on-disk format (manifest,
content-hashed snapshots, write-ahead journal), :mod:`.runner` for the
barrier model and the benchmark's entry point (the study driver in
:mod:`repro.shard.runner` owns the barrier loop, run and resume), and
:mod:`.killmatrix` for the crash-at-every-barrier equivalence harness.
"""

from .killmatrix import run_kill_matrix, study_artifact
from .runner import run_checkpointed_study
from .serde import config_to_dict, restore_runtime, serialize_runtime
from .store import SCHEMA_VERSION, CheckpointStore, canonical_json, content_hash

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointStore",
    "canonical_json",
    "content_hash",
    "config_to_dict",
    "serialize_runtime",
    "restore_runtime",
    "run_checkpointed_study",
    "run_kill_matrix",
    "study_artifact",
]
