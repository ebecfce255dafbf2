"""Tests for the checkpoint store: manifest, journal, snapshots."""

import json
import shutil

import pytest

from repro.checkpoint.store import (
    SCHEMA_VERSION,
    CheckpointStore,
    canonical_json,
    content_hash,
)
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointSchemaError,
)
from repro.scenario import Scenario

CONFIG = {"study_days": 3, "warmup_days": 8}


def make_store(directory, seed=11, population=150, config=None, profile=None):
    return CheckpointStore.create(
        directory,
        seed=seed,
        population=population,
        config=config if config is not None else dict(CONFIG),
        scenario=Scenario.of(fault_profile=profile),
    )


class TestManifest:
    def test_round_trip(self, tmp_path):
        created = make_store(tmp_path / "ckpt", profile="lossy-default")
        opened = CheckpointStore.open(tmp_path / "ckpt")
        assert opened.manifest == created.manifest
        assert opened.manifest_hash == created.manifest_hash
        assert opened.manifest["schema_version"] == SCHEMA_VERSION
        assert opened.manifest["scenario"]["fault_profile"] == "lossy-default"

    def test_create_refuses_existing_directory(self, tmp_path):
        make_store(tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="already holds a manifest"):
            make_store(tmp_path / "ckpt")

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            CheckpointStore.open(tmp_path / "nowhere")

    def test_unsupported_schema_version(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        manifest = dict(store.manifest, schema_version=SCHEMA_VERSION + 1)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(canonical_json(manifest))
        with pytest.raises(CheckpointSchemaError, match="schema"):
            CheckpointStore.open(tmp_path / "ckpt")

    def test_schema_1_manifest_refused_not_migrated(self, tmp_path):
        store = make_store(tmp_path / "ckpt", profile="lossy-default")
        manifest = dict(store.manifest, schema_version=1)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(canonical_json(manifest))
        with pytest.raises(CheckpointSchemaError, match="rerun from scratch"):
            CheckpointStore.open(tmp_path / "ckpt")

    def test_schema_3_checkpoint_refused_not_migrated(self, tmp_path):
        # Schema 3 snapshots carry the fault plan's draw stream and the
        # clients' jitter streams, which keyed draws no longer read.
        store = make_store(tmp_path / "ckpt", profile="lossy-default")
        manifest = dict(store.manifest, schema_version=3)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(canonical_json(manifest))
        with pytest.raises(CheckpointSchemaError, match="rerun from scratch"):
            CheckpointStore.open(tmp_path / "ckpt")

    def test_schema_4_checkpoint_refused_not_migrated(self, tmp_path):
        # Schema 4 snapshots hold the whole report so far; schema 5
        # resume folds barrier deltas and would misread them.
        store = make_store(tmp_path / "ckpt")
        manifest = dict(store.manifest, schema_version=4)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(canonical_json(manifest))
        with pytest.raises(CheckpointSchemaError, match="rerun from scratch"):
            CheckpointStore.open(tmp_path / "ckpt")

    def test_schema_5_checkpoint_refused_not_migrated(self, tmp_path):
        # Schema 5 snapshots write each domain of a day as its own dict;
        # schema 6 reads tabled days and would misread them.
        store = make_store(tmp_path / "ckpt")
        manifest = dict(store.manifest, schema_version=5)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(canonical_json(manifest))
        with pytest.raises(CheckpointSchemaError, match="rerun from scratch"):
            CheckpointStore.open(tmp_path / "ckpt")

    def test_schema_6_checkpoint_refused_not_migrated(self, tmp_path):
        # Schema 6 snapshots write a day as rows of indices beside a
        # separate list of observations; schema 7 reads day-table
        # columns and would misread them.
        store = make_store(tmp_path / "ckpt")
        manifest = dict(store.manifest, schema_version=6)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(canonical_json(manifest))
        with pytest.raises(CheckpointSchemaError, match="rerun from scratch"):
            CheckpointStore.open(tmp_path / "ckpt")

    def test_manifest_records_the_scenario(self, tmp_path):
        store = make_store(tmp_path / "ckpt", profile="lossy-default")
        scenario = Scenario.of(fault_profile="lossy-default")
        assert store.manifest["scenario"] == scenario.identity()
        assert store.manifest["scenario_hash"] == scenario.hash

    def test_garbled_manifest_is_corrupt(self, tmp_path):
        make_store(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            CheckpointStore.open(tmp_path / "ckpt")


class TestVerifyInputs:
    @pytest.fixture
    def store(self, tmp_path):
        return make_store(tmp_path / "ckpt", profile="lossy-default")

    def test_matching_inputs_accepted(self, store):
        store.verify_inputs(
            seed=11,
            population=150,
            config=dict(CONFIG),
            scenario=Scenario.of(fault_profile="lossy-default"),
        )

    @pytest.mark.parametrize(
        "override, needle",
        [
            (dict(seed=12), "seed"),
            (dict(population=151), "population"),
            (dict(config={"study_days": 4, "warmup_days": 8}), "config"),
            (dict(scenario=Scenario()), "fault_profile"),
        ],
    )
    def test_each_mismatch_refused(self, store, override, needle):
        inputs = dict(
            seed=11,
            population=150,
            config=dict(CONFIG),
            scenario=Scenario.of(fault_profile="lossy-default"),
        )
        inputs.update(override)
        with pytest.raises(CheckpointMismatchError, match=needle):
            store.verify_inputs(**inputs)


class TestJournal:
    def append(self, store, barrier, state=None):
        return store.append_barrier(
            barrier=barrier,
            day=10 + barrier,
            clock_now=(10 + barrier) * 86_400,
            state=state if state is not None else {"barrier": barrier},
        )

    def test_append_and_replay(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        for barrier in range(3):
            self.append(store, barrier)
        records = store.barriers()
        assert [r["barrier"] for r in records] == [0, 1, 2]
        assert store.latest()["barrier"] == 2
        assert store.load_snapshot(records[1]) == {"barrier": 1}

    def test_out_of_order_append_refused(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        with pytest.raises(CheckpointError, match="out of order"):
            self.append(store, 2)

    def test_empty_journal(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        assert store.barriers() == []
        assert store.latest() is None

    def test_torn_tail_discarded_not_fatal(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        self.append(store, 1)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"barrier": 2, "tor')
        records = store.barriers()
        assert [r["barrier"] for r in records] == [0, 1]
        assert store.latest()["barrier"] == 1

    def test_valid_json_with_bad_hash_tail_discarded(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        record = dict(store.latest(), barrier=1, record_hash="0" * 32)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")
        assert [r["barrier"] for r in store.barriers()] == [0]

    def test_mid_journal_damage_is_corruption(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        for barrier in range(3):
            self.append(store, barrier)
        lines = store.journal_path.read_text().splitlines()
        lines[1] = lines[1][:-10] + "corrupted}"
        store.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="before the tail"):
            store.barriers()

    def test_foreign_journal_refused(self, tmp_path):
        ours = make_store(tmp_path / "ours")
        theirs = make_store(tmp_path / "theirs", seed=12)
        self.append(theirs, 0)
        shutil.copy(theirs.journal_path, ours.journal_path)
        with pytest.raises(CheckpointMismatchError, match="different manifest"):
            ours.barriers()

    def test_corrupted_snapshot_refused(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        record = self.append(store, 0, state={"payload": list(range(50))})
        path = tmp_path / "ckpt" / record["snapshot"]
        body = bytearray(path.read_bytes())
        body[len(body) // 2] ^= 0xFF
        path.write_bytes(bytes(body))
        with pytest.raises(CheckpointCorruptError, match="refusing to resume"):
            store.load_snapshot(record)

    def test_missing_snapshot_refused(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        record = self.append(store, 0)
        (tmp_path / "ckpt" / record["snapshot"]).unlink()
        with pytest.raises(CheckpointCorruptError, match="missing snapshot"):
            store.load_snapshot(record)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert content_hash({"b": 1, "a": 2}) == content_hash({"a": 2, "b": 1})

    def test_round_trips_through_json(self):
        payload = {"nested": [1, 2, {"x": None}], "flag": True}
        assert json.loads(canonical_json(payload)) == payload
