"""Durable checkpoint store: manifest, snapshots, write-ahead journal.

A checkpoint directory holds three kinds of files:

``MANIFEST.json``
    The run's identity — schema version, seed, population size, the
    full study config, the :class:`~repro.scenario.Scenario` — plus
    content hashes of the config and scenario.  A resume against
    *different* inputs is refused loudly
    (:class:`~repro.errors.CheckpointMismatchError`): silently
    continuing a seed-11 trajectory with seed-12 inputs would produce a
    report that looks valid and is garbage.

``snapshot-NNNN.json``
    The serialized study runtime at barrier ``NNNN``, written atomically
    (tmp + fsync + rename via :mod:`repro.io`) and content-hashed.  It
    is a *delta*: the report's append-only series hold only what the
    study gained since barrier ``NNNN - 1``
    (:func:`~repro.checkpoint.serde.report_partial_to_dict`), the rest
    of the runtime is whole.  Each study day in it is a copy of its
    day table's integer columns, with the day's names and providers
    listed once.  Restoring barrier ``k`` therefore reads and verifies
    every snapshot ``0..k``; damage anywhere in that chain refuses the
    resume.

``journal.jsonl``
    The write-ahead journal: one line per *committed* barrier, appended
    durably (write + flush + fsync) only after its snapshot is safely on
    disk.  Each record carries its own hash and the manifest hash.  A
    torn final line — the signature of a crash mid-append — is discarded
    on replay; a bad line anywhere *else* means tampering or bit rot and
    raises :class:`~repro.errors.CheckpointCorruptError`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointSchemaError,
)
from ..io import append_durable_line, atomic_write_text, canonical_json, content_hash
from ..scenario import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "content_hash",
    "CheckpointStore",
]

#: Bump on any incompatible change to manifest/journal/snapshot layout.
#: Schema 2 records the scenario (all three profiles) as the manifest's
#: identity; schema 3 snapshots carry one ``planes`` map keyed by
#: scenario field; schema 4 drops the fault plan's draw stream and
#: counters and the clients' jitter streams (every draw is keyed);
#: schema 5 snapshots are barrier deltas whose report series extend the
#: previous barrier's; schema 6 writes each daily snapshot as tables of
#: names and addresses plus rows of indices into them; schema 7 copies
#: each study day's table columns.  Other versions are refused, never
#: migrated.
SCHEMA_VERSION = 7

MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.jsonl"

#: Journal-record keys covered by ``record_hash`` (everything else).
_RECORD_FIELDS = (
    "barrier",
    "day",
    "clock_now",
    "snapshot",
    "snapshot_hash",
    "manifest_hash",
)


class CheckpointStore:
    """One checkpoint directory: create fresh or open for resume."""

    def __init__(self, directory: "Path | str", manifest: Dict[str, object]) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.manifest_hash = content_hash(manifest)

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: "Path | str",
        *,
        seed: int,
        population: int,
        config: Dict[str, object],
        scenario: Scenario,
        shard: Optional[Dict[str, int]] = None,
    ) -> "CheckpointStore":
        """Start a fresh checkpoint directory (refuses to reuse one).

        ``shard`` records the store's position in a sharded campaign —
        ``{"index": i, "count": n}`` for a worker's store, ``{"count": n}``
        for the coordinator's parent directory, ``None`` (the default)
        for a one-worker (monolithic) run.  The identity is checked on
        resume: a
        worker's slice of the measurements must never be resumed as if
        it covered the whole population, nor vice versa.
        """
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            raise CheckpointError(
                f"checkpoint directory {directory} already holds a manifest; "
                "resume it (repro resume) or point at a fresh directory"
            )
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "seed": int(seed),
            "population": int(population),
            "config": config,
            "config_hash": content_hash(config),
            "scenario": scenario.identity(),
            "scenario_hash": scenario.hash,
            "shard": shard,
        }
        atomic_write_text(directory / MANIFEST_NAME, canonical_json(manifest) + "\n")
        return cls(directory, manifest)

    @classmethod
    def open(cls, directory: "Path | str") -> "CheckpointStore":
        """Open an existing checkpoint directory for resume."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(
                f"unreadable checkpoint manifest {manifest_path}: {exc}"
            ) from exc
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CheckpointSchemaError(
                f"checkpoint schema {version!r} is not the supported "
                f"schema {SCHEMA_VERSION}; checkpoints are not migrated "
                "across schemas — rerun from scratch"
            )
        return cls(directory, manifest)

    # -- identity ------------------------------------------------------

    def verify_inputs(
        self,
        *,
        seed: int,
        population: int,
        config: Dict[str, object],
        scenario: Scenario,
        shard: Optional[Dict[str, int]] = None,
    ) -> None:
        """Refuse (loudly) to marry this store to different inputs.

        ``shard`` must match the identity recorded at :meth:`create`
        (``None`` for a one-worker run's store).  A scenario mismatch
        names the profile that differs (``fault_profile=…``).
        """
        recorded_inputs = {**self.manifest, **self.manifest["scenario"]}
        expected = {
            "seed": int(seed),
            "population": int(population),
            **scenario.identity(),
            "config_hash": content_hash(config),
            "shard": shard,
        }
        for key, value in expected.items():
            recorded = recorded_inputs.get(key)
            if recorded != value:
                label = "study config" if key == "config_hash" else key
                raise CheckpointMismatchError(
                    f"checkpoint was written for {label}={recorded!r} but the "
                    f"resume supplied {label}={value!r}; a resumed run must "
                    "use the exact inputs of the original"
                )

    # -- journal -------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def append_barrier(
        self, *, barrier: int, day: int, clock_now: int, state: Dict[str, object]
    ) -> Dict[str, object]:
        """Commit one barrier: snapshot first, then the journal record.

        The ordering is the crash-safety invariant: the snapshot is
        atomically durable *before* its journal record exists, so every
        committed record points at a complete snapshot.  A crash between
        the two leaves an orphan snapshot file, which replay ignores.
        """
        records = self.barriers()
        expected = records[-1]["barrier"] + 1 if records else 0
        if barrier != expected:
            raise CheckpointError(
                f"barrier {barrier} out of order; journal expects {expected}"
            )
        body = canonical_json(state)
        snapshot_name = f"snapshot-{barrier:04d}.json"
        atomic_write_text(self.directory / snapshot_name, body)
        record = {
            "barrier": int(barrier),
            "day": int(day),
            "clock_now": int(clock_now),
            "snapshot": snapshot_name,
            "snapshot_hash": hashlib.blake2b(
                body.encode("utf-8"), digest_size=16
            ).hexdigest(),
            "manifest_hash": self.manifest_hash,
        }
        record["record_hash"] = content_hash({k: record[k] for k in _RECORD_FIELDS})
        append_durable_line(self.journal_path, canonical_json(record))
        return record

    def barriers(self) -> List[Dict[str, object]]:
        """Replay the journal into its committed records.

        A damaged *final* line is the torn tail of a crashed append and
        is silently discarded; damage anywhere earlier raises
        :class:`CheckpointCorruptError`.
        """
        if not self.journal_path.exists():
            return []
        lines = self.journal_path.read_text(encoding="utf-8").splitlines()
        records: List[Dict[str, object]] = []
        for index, line in enumerate(lines):
            is_tail = index == len(lines) - 1
            record = self._parse_record(line, is_tail)
            if record is None:  # torn tail, discarded
                break
            if record["manifest_hash"] != self.manifest_hash:
                raise CheckpointMismatchError(
                    f"journal line {index + 1} was committed under a "
                    "different manifest; this journal does not belong to "
                    "this checkpoint's inputs"
                )
            expected = records[-1]["barrier"] + 1 if records else 0
            if record["barrier"] != expected:
                raise CheckpointCorruptError(
                    f"journal line {index + 1} holds barrier "
                    f"{record['barrier']}, expected {expected}"
                )
            records.append(record)
        return records

    def _parse_record(self, line: str, is_tail: bool) -> Optional[Dict[str, object]]:
        """One journal line → record; None for a discarded torn tail."""
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("journal record is not an object")
            payload = {key: record[key] for key in _RECORD_FIELDS}
            if record["record_hash"] != content_hash(payload):
                raise ValueError("record hash mismatch")
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            if is_tail:
                return None
            raise CheckpointCorruptError(
                f"corrupt journal record before the tail: {exc}"
            ) from exc
        return record

    def latest(self) -> Optional[Dict[str, object]]:
        """The newest committed barrier record, if any."""
        records = self.barriers()
        return records[-1] if records else None

    # -- snapshots -----------------------------------------------------

    def load_snapshot(self, record: Dict[str, object]) -> Dict[str, object]:
        """Load and hash-verify the snapshot a journal record points at."""
        path = self.directory / str(record["snapshot"])
        try:
            body = path.read_bytes()
        except OSError as exc:
            raise CheckpointCorruptError(
                f"journal points at missing snapshot {path}: {exc}"
            ) from exc
        digest = hashlib.blake2b(body, digest_size=16).hexdigest()
        if digest != record["snapshot_hash"]:
            raise CheckpointCorruptError(
                f"snapshot {path.name} hash {digest} does not match the "
                f"journal's {record['snapshot_hash']}; refusing to resume "
                "from a corrupt snapshot"
            )
        return json.loads(body.decode("utf-8"))
