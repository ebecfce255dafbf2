"""The kill matrix: crash at *every* barrier, resume, demand identity.

For each crash mode and each barrier the harness runs a checkpointed
study with a :class:`~repro.faults.crash.CrashPlan` armed at that
barrier, catches the :class:`~repro.errors.SimulatedCrash`, resumes
from the checkpoint directory, and compares the resumed run's E1
(daily collection) and E8 (full report) artifacts byte-for-byte —
canonical JSON — against an uninterrupted reference run.  This is the
same equivalence discipline ``repro chaos`` applies to fault profiles,
pointed at the checkpoint plane itself.

The matrix also exercises the refusal paths on the reference
directory: a mismatched seed, or a mismatched profile on any plane
(one ``mismatched-<field>`` check per :data:`~repro.scenario.PLANES`
kind), must raise :class:`CheckpointMismatchError`; a torn journal
tail must be *tolerated* (resume from the previous barrier, still
byte-identical); and a corrupted newest snapshot, a corrupted earlier
one and a snapshot missing from mid-chain must each raise
:class:`CheckpointCorruptError` — resume folds every snapshot of the
chain, not just the last.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from ..core.export import report_to_dict
from ..core.study import StudyConfig, StudyReport
from ..errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    SimulatedCrash,
)
from ..faults.chaos import _collection_artifact, diff_artifacts
from ..faults.crash import CRASH_MODES, CrashPlan
from ..io import atomic_write_text
from ..scenario import Scenario
from .store import canonical_json, content_hash

__all__ = ["study_artifact", "run_kill_matrix"]


def study_artifact(report: StudyReport) -> Dict[str, object]:
    """The byte-compared artifact: E1 daily collections + E8 report."""
    return {
        "e1": [_collection_artifact(table) for table in report.days],
        "e8": report_to_dict(report),
    }


def run_kill_matrix(
    base_dir: "Path | str",
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    shards: int = 1,
    shard_mode: str = "inline",
    **profiles: Optional[str],
) -> Dict[str, object]:
    """Crash at every barrier in every mode; assert resumed == reference.

    Returns the divergence-report payload: one case per (mode, barrier)
    with its verdict and dotted-path divergences, the refusal-path
    checks, and an overall ``passed`` flag.

    With ``shards > 1`` the whole matrix runs through the sharded
    execution plane: the reference is an uninterrupted sharded campaign,
    every crash case arms the plan in *all* lockstep workers, and the
    refusal-path mutations target shard 0's store (one damaged worker
    must be enough to stop — or, for the torn tail, be tolerated by —
    the campaign resume).
    """
    # Imported lazily: repro.shard.runner itself imports this package's
    # serde/store modules, and the package __init__ pulls in this module
    # — a top-level import would close the cycle.
    from ..shard.runner import resume_campaign, run_campaign, shard_directory

    base = Path(base_dir)
    config = config if config is not None else StudyConfig()
    scenario = Scenario.of(**profiles)
    inputs = dict(
        population=population, seed=seed, config=config, **scenario.identity()
    )

    def launch(directory, crash_plan, run_inputs):
        return run_campaign(
            checkpoint_dir=directory,
            crash_plan=crash_plan,
            shard_count=shards,
            mode=shard_mode,
            **run_inputs,
        )

    def reopen(directory, run_inputs):
        return resume_campaign(directory, mode=shard_mode, **run_inputs)

    reference_report = launch(base / "reference", None, inputs)
    reference = study_artifact(reference_report)
    reference_bytes = canonical_json(reference)

    cases: List[Dict[str, object]] = []
    for mode in CRASH_MODES:
        # before-commit at barrier 0 is meaningless: there is no prior
        # committed barrier to fall back to (CrashPlan refuses it too).
        first = 1 if mode == "before-commit" else 0
        for barrier in range(first, config.study_days + 1):
            cases.append(
                _crash_case(
                    base / f"crash-{mode}-{barrier:04d}",
                    mode,
                    barrier,
                    inputs,
                    reference,
                    reference_bytes,
                    launch,
                    reopen,
                )
            )

    refusals = _refusal_checks(
        base / "reference",
        inputs,
        reference_bytes,
        reopen,
        shard_directory(base / "reference", 0, shards),
    )

    return {
        "schema_version": 2,
        "population": population,
        "seed": seed,
        "warmup_days": config.warmup_days,
        "study_days": config.study_days,
        **scenario.identity(),
        "shards": shards,
        "shard_mode": shard_mode,
        "reference_hash": content_hash(reference),
        "cases": cases,
        "refusals": refusals,
        "passed": all(c["passed"] for c in cases)
        and all(r["passed"] for r in refusals),
    }


def _crash_case(
    directory: Path,
    mode: str,
    barrier: int,
    inputs: Dict[str, object],
    reference: Dict[str, object],
    reference_bytes: str,
    launch,
    reopen,
) -> Dict[str, object]:
    case: Dict[str, object] = {"mode": mode, "barrier": barrier}
    plan = CrashPlan(at_barrier=barrier, mode=mode)
    try:
        launch(directory, plan, inputs)
    except SimulatedCrash:
        case["crashed"] = True
    else:
        case.update(crashed=False, passed=False, divergences=["crash never fired"])
        return case
    resumed = study_artifact(reopen(directory, inputs))
    identical = canonical_json(resumed) == reference_bytes
    case["passed"] = identical
    case["divergences"] = [] if identical else diff_artifacts(reference, resumed)
    return case


def _refusal_checks(
    reference_dir: Path,
    inputs: Dict[str, object],
    reference_bytes: str,
    reopen,
    store_dir: Path,
) -> List[Dict[str, object]]:
    """Mutate the (already harvested) reference directory and make sure
    every refusal path refuses — and the torn-tail path tolerates.

    ``store_dir`` is where the journal and snapshots actually live: the
    reference directory itself for a one-worker run, shard 0's
    subdirectory for a sharded campaign.  Each plane's profile in turn
    is swapped for another registered one, and the resume must refuse.
    """
    checks: List[Dict[str, object]] = []

    wrong_seed = dict(inputs, seed=int(inputs["seed"]) + 1)
    checks.append(
        _expect_refusal(
            "mismatched-seed",
            reference_dir,
            wrong_seed,
            CheckpointMismatchError,
            reopen,
        )
    )
    for kind in Scenario.kinds():
        other = next(
            name
            for name in Scenario.known(kind.field)
            if name != inputs[kind.keyword]
        )
        checks.append(
            _expect_refusal(
                f"mismatched-{kind.field}",
                reference_dir,
                dict(inputs, **{kind.keyword: other}),
                CheckpointMismatchError,
                reopen,
            )
        )

    # Torn tail: a partial record (crash mid-append) must be discarded,
    # resuming from the previous barrier and still matching byte-for-byte.
    journal = store_dir / "journal.jsonl"
    with open(journal, "a", encoding="utf-8") as handle:  # repro: allow[REP031] -- deliberately simulating a torn, non-durable append
        handle.write('{"barrier": 9999, "truncated')
    try:
        resumed = study_artifact(reopen(reference_dir, inputs))
        identical = canonical_json(resumed) == reference_bytes
        checks.append(
            {
                "check": "torn-journal-tail",
                "passed": identical,
                "detail": "resumed past torn tail"
                if identical
                else "resumed run diverged",
            }
        )
    except Exception as exc:  # repro: allow[REP021] -- any unexpected exception is recorded as a failing verdict, not propagated
        checks.append(
            {
                "check": "torn-journal-tail",
                "passed": False,
                "detail": f"resume raised {type(exc).__name__}: {exc}",
            }
        )

    # Damaged snapshots.  Resume folds the whole chain 0..k, so a
    # flipped byte in the newest snapshot, in an earlier one, or a
    # snapshot gone from mid-chain must each refuse.  Each damage is
    # undone before the next, so every check stands on its own.  A chain
    # of one or two snapshots has no earlier or mid-chain one; the first
    # snapshot stands in.
    snapshots = sorted(store_dir.glob("snapshot-*.json"))
    long_chain = len(snapshots) > 2
    damages = (
        ("corrupt-snapshot", snapshots[-1], _flip_middle_byte),
        (
            "corrupt-earlier-snapshot",
            snapshots[1] if long_chain else snapshots[0],
            _flip_middle_byte,
        ),
        (
            "missing-snapshot",
            snapshots[len(snapshots) // 2] if long_chain else snapshots[0],
            Path.unlink,
        ),
    )
    for name, target, damage in damages:
        original = target.read_text(encoding="utf-8")
        damage(target)
        checks.append(
            _expect_refusal(
                name, reference_dir, inputs, CheckpointCorruptError, reopen
            )
        )
        atomic_write_text(target, original)
    return checks


def _flip_middle_byte(path: Path) -> None:
    body = bytearray(path.read_bytes())
    body[len(body) // 2] ^= 0xFF
    path.write_bytes(bytes(body))  # repro: allow[REP031] -- deliberately corrupting a snapshot to prove the refusal path


def _expect_refusal(
    name: str,
    directory: Path,
    inputs: Dict[str, object],
    expected: type,
    reopen,
) -> Dict[str, object]:
    try:
        reopen(directory, inputs)
    except expected as exc:
        return {"check": name, "passed": True, "detail": str(exc)}
    except Exception as exc:  # repro: allow[REP021] -- wrong-exception-type is recorded as a failing verdict, not propagated
        return {
            "check": name,
            "passed": False,
            "detail": f"raised {type(exc).__name__} instead of {expected.__name__}",
        }
    return {
        "check": name,
        "passed": False,
        "detail": f"resume succeeded; expected {expected.__name__}",
    }
