"""The Scenario value: normalisation, identity, install order — and the
runners validating it before anything touches disk."""

import pytest

from repro.attacks import ATTACK_PROFILES
from repro.checkpoint import CheckpointStore, run_checkpointed_study
from repro.core.study import StudyConfig
from repro.errors import ConfigurationError
from repro.faults import PROFILES
from repro.scenario import Scenario
from repro.shard import run_sharded_study
from repro.traffic import TRAFFIC_PROFILES

TINY = dict(
    population=60, seed=5, config=StudyConfig(warmup_days=2, study_days=1)
)


class TestNormalisation:
    def test_none_and_missing_both_mean_off(self):
        spelled = Scenario.of(
            fault_profile="none", traffic_profile="none", attack_profile="none"
        )
        assert spelled == Scenario.of() == Scenario()

    def test_known_names_are_kept(self):
        scenario = Scenario.of(
            fault_profile="lossy-default",
            traffic_profile="surge",
            attack_profile="skirmish",
        )
        assert (scenario.fault, scenario.traffic, scenario.attacks) == (
            "lossy-default",
            "surge",
            "skirmish",
        )

    @pytest.mark.parametrize(
        "keyword, kind",
        [
            ("fault_profile", "fault"),
            ("traffic_profile", "traffic"),
            ("attack_profile", "attack"),
        ],
    )
    def test_unknown_name_refused(self, keyword, kind):
        with pytest.raises(ConfigurationError, match=f"unknown {kind} profile"):
            Scenario.of(**{keyword: "tsunami"})

    def test_known_lists_each_registry_sorted(self):
        assert Scenario.known("fault") == sorted(PROFILES)
        assert Scenario.known("traffic") == sorted(TRAFFIC_PROFILES)
        assert Scenario.known("attacks") == sorted(ATTACK_PROFILES)


class TestIdentity:
    def test_identity_round_trips_through_of(self):
        scenario = Scenario.of(traffic_profile="surge")
        assert scenario.identity() == {
            "fault_profile": None,
            "traffic_profile": "surge",
            "attack_profile": None,
        }
        assert Scenario.of(**scenario.identity()) == scenario

    def test_hash_is_stable_and_distinguishes_fields(self):
        # blake2b over canonical JSON: the same in every process.
        assert Scenario().hash == "fdab9d0281666d3c7ba1358dbbaee8f3"
        assert Scenario.of(traffic_profile="surge").hash == (
            Scenario(traffic="surge").hash
        )
        hashes = {
            Scenario().hash,
            Scenario(fault="heavy-loss").hash,
            Scenario(traffic="surge").hash,
            Scenario(attacks="skirmish").hash,
        }
        assert len(hashes) == 4


class _RecordingWorld:
    def __init__(self):
        self.calls = []

    def install_faults(self, name):
        self.calls.append(("faults", name))

    def install_traffic(self, name):
        self.calls.append(("traffic", name))

    def install_attacks(self, name):
        self.calls.append(("attacks", name))


class TestInstall:
    def test_installs_faults_then_traffic_then_attacks(self):
        world = _RecordingWorld()
        Scenario.of(
            fault_profile="heavy-loss",
            traffic_profile="surge",
            attack_profile="skirmish",
        ).install(world)
        assert world.calls == [
            ("faults", "heavy-loss"),
            ("traffic", "surge"),
            ("attacks", "skirmish"),
        ]

    def test_planes_that_are_off_are_not_installed(self):
        world = _RecordingWorld()
        Scenario.of(traffic_profile="surge").install(world)
        assert world.calls == [("traffic", "surge")]


class TestRunnersValidateFirst:
    def test_checkpointed_run_accepts_none(self, tmp_path):
        report = run_checkpointed_study(
            tmp_path / "ckpt",
            fault_profile="none",
            traffic_profile="none",
            attack_profile="none",
            **TINY,
        )
        assert report.attack_profile is None
        manifest = CheckpointStore.open(tmp_path / "ckpt").manifest
        assert manifest["scenario"] == Scenario().identity()

    @pytest.mark.parametrize(
        "keyword", ["fault_profile", "traffic_profile", "attack_profile"]
    )
    def test_bad_name_leaves_no_monolithic_manifest(self, tmp_path, keyword):
        with pytest.raises(ConfigurationError):
            run_checkpointed_study(tmp_path / "ckpt", **{keyword: "tsunami"}, **TINY)
        assert not (tmp_path / "ckpt" / "MANIFEST.json").exists()

    @pytest.mark.parametrize(
        "keyword", ["fault_profile", "traffic_profile", "attack_profile"]
    )
    def test_bad_name_leaves_no_coordinator_manifest(self, tmp_path, keyword):
        with pytest.raises(ConfigurationError):
            run_sharded_study(
                checkpoint_dir=tmp_path / "campaign",
                shard_count=2,
                **{keyword: "tsunami"},
                **TINY,
            )
        assert not (tmp_path / "campaign" / "MANIFEST.json").exists()
