"""The Scenario value: normalisation, identity, install order — and the
runners validating it before anything touches disk."""

import pytest

from repro.attacks import ATTACK_PROFILES
from repro.checkpoint import CheckpointStore, run_checkpointed_study, run_kill_matrix
from repro.core.study import StudyConfig
from repro.errors import CheckpointMismatchError, ConfigurationError
from repro.faults import PROFILES
from repro.scenario import PLANES, Scenario
from repro.shard import resume_campaign, run_campaign, run_sharded_study
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

    def install_plane(self, field, name):
        self.calls.append((field, name))


class TestInstall:
    def test_installs_faults_then_traffic_then_attacks(self):
        world = _RecordingWorld()
        Scenario.of(
            fault_profile="heavy-loss",
            traffic_profile="surge",
            attack_profile="skirmish",
        ).install(world)
        assert world.calls == [
            ("fault", "heavy-loss"),
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


#: Every public runner, called as ``(directory, **inputs)``.
RUNNERS = {
    "run_campaign": lambda directory, **inputs: run_campaign(
        checkpoint_dir=directory, **inputs
    ),
    "run_checkpointed_study": run_checkpointed_study,
    "run_sharded_study": lambda directory, **inputs: run_sharded_study(
        checkpoint_dir=directory, shard_count=2, **inputs
    ),
    "resume_campaign": resume_campaign,
    "run_kill_matrix": run_kill_matrix,
}

#: The runners that start a checkpointed study from scratch.
STARTERS = ["run_campaign", "run_checkpointed_study", "run_sharded_study"]


def _field(kind):
    return kind.field


class TestRunnersTakeEveryPlane:
    """The runners take each :data:`PLANES` keyword without naming it."""

    @pytest.mark.parametrize("kind", PLANES, ids=_field)
    @pytest.mark.parametrize("runner", STARTERS)
    def test_run_records_and_resume_checks_the_plane(self, tmp_path, runner, kind):
        name = Scenario.known(kind.field)[0]
        RUNNERS[runner](tmp_path / "ckpt", **{kind.keyword: name}, **TINY)
        manifest = CheckpointStore.open(tmp_path / "ckpt").manifest
        assert manifest["scenario"][kind.keyword] == name
        resume_campaign(tmp_path / "ckpt", **{kind.keyword: name}, **TINY)
        with pytest.raises(CheckpointMismatchError, match=kind.keyword):
            resume_campaign(tmp_path / "ckpt", **TINY)

    @pytest.mark.parametrize("kind", PLANES, ids=_field)
    def test_kill_matrix_records_the_plane(self, tmp_path, kind):
        name = Scenario.known(kind.field)[0]
        payload = run_kill_matrix(
            tmp_path,
            population=60,
            seed=5,
            config=StudyConfig(warmup_days=2, study_days=0),
            **{kind.keyword: name},
        )
        assert payload[kind.keyword] == name
        assert payload["passed"] is True
        assert f"mismatched-{kind.field}" in {
            check["check"] for check in payload["refusals"]
        }
        manifest = CheckpointStore.open(tmp_path / "reference").manifest
        assert manifest["scenario"][kind.keyword] == name

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_misspelled_keyword_is_a_type_error(self, tmp_path, runner):
        with pytest.raises(TypeError, match="traffic_profle"):
            RUNNERS[runner](tmp_path / "ckpt", traffic_profle="surge", **TINY)
        assert not (tmp_path / "ckpt").exists()
