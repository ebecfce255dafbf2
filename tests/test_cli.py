"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.scenario import PLANES, Scenario


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.population == 2000
        assert args.days == 42
        assert args.warmup == 56

    def test_attack_args(self):
        args = build_parser().parse_args(
            ["attack", "--population", "300", "--gbps", "500"]
        )
        assert args.gbps == 500.0

    def test_plan_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["purge-probe", "--plan", "platinum"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.population == 2000
        assert args.warmup == 7
        assert args.label is None
        assert args.out is None


class TestCommands:
    def test_attack_command(self, capsys):
        code = main(["attack", "--population", "200", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "path=scrubbed" in out
        assert "path=direct" in out
        assert "site down" in out

    def test_purge_probe_command(self, capsys):
        code = main(["purge-probe", "--population", "120", "--seed", "3",
                     "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "purged in week 4" in out

    def test_scan_command(self, capsys):
        code = main(["scan", "--population", "800", "--seed", "3",
                     "--warmup", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hidden=" in out

    def test_bench_command(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_clitest.json"
        code = main([
            "bench", "--population", "120", "--seed", "3",
            "--warmup", "2", "--label", "clitest", "--out", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "E1 collection" in printed
        assert f"bench written to {out_path}" in printed
        payload = json.loads(out_path.read_text())
        assert payload["label"] == "clitest"
        assert payload["population"] == 120
        counters = payload["e1_collection"]["counters"]
        assert counters["resolver.queries_sent"] > 0

    def test_bench_default_out_uses_label(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--population", "60", "--seed", "3",
                     "--warmup", "1"])
        assert code == 0
        assert (tmp_path / "BENCH_p60.json").exists()

    def test_study_command_small(self, capsys):
        code = main([
            "study", "--population", "250", "--seed", "3",
            "--days", "8", "--warmup", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig. 2" in out and "Table VI" in out


class TestChaosCommand:
    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "--profile", "lossy-default"])
        assert args.fault == "lossy-default"
        assert args.population == 400
        assert args.seed == 2018
        assert args.warmup == 21
        assert args.out is None

    def test_chaos_profile_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--profile", "nope"])

    def test_chaos_equivalence_profile_passes(self, capsys, tmp_path):
        out_path = tmp_path / "CHAOS_clitest.json"
        code = main([
            "chaos", "--profile", "lossy-default", "--population", "80",
            "--seed", "3", "--warmup", "5", "--out", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "artifacts identical to the fault-free run" in printed
        payload = json.loads(out_path.read_text())
        assert payload["profile"] == "lossy-default"
        assert payload["identical"] is True
        assert payload["passed"] is True
        assert payload["divergences"] == []

    def test_chaos_exits_nonzero_on_divergence(self, capsys, tmp_path, monkeypatch):
        import repro.faults.chaos as chaos_module

        failing = {
            "profile": "lossy-default",
            "description": "stub",
            "expect_equivalence": True,
            "population": 10,
            "seed": 1,
            "warmup_days": 1,
            "identical": False,
            "divergences": ["collection.www.example.com.rcode"],
            "faults_injected": 5,
            "retries": {"resolver": 1, "client": 0, "http": 0},
            "unmeasured_sites": 0,
            "quarantined_nameservers": [],
            "counters": {},
            "passed": False,
        }
        monkeypatch.setattr(chaos_module, "run_chaos", lambda *a, **k: failing)
        monkeypatch.chdir(tmp_path)
        code = main(["chaos", "--profile", "lossy-default"])
        captured = capsys.readouterr()
        assert code == 1
        assert "chaos check FAILED" in captured.err
        assert (tmp_path / "CHAOS_lossy-default.json").exists()


class TestCheckpointCommands:
    def test_resume_parser_defaults(self):
        args = build_parser().parse_args(["resume", "ckpt-dir"])
        assert args.checkpoint == "ckpt-dir"
        assert args.population == 2000
        assert args.seed == 2018
        assert args.days == 42
        assert args.warmup == 56
        assert args.fault is None

    def test_kill_matrix_parser_defaults(self):
        args = build_parser().parse_args(["kill-matrix"])
        assert args.population == 2000
        assert args.days == 4
        assert args.warmup == 10
        assert args.out == "KILLMATRIX.json"
        assert args.workdir is None

    def test_unchecked_fault_profile_study_matches_checkpointed(
        self, capsys, tmp_path
    ):
        # lossy-default stays inside the retry budget, so its export
        # equals a fault-free one; heavy-loss degrades visibly, proving
        # the unchecked run installed the profile at all.
        exports = {}
        for profile in ("lossy-default", "heavy-loss"):
            plain = tmp_path / f"plain-{profile}.json"
            durable = tmp_path / f"durable-{profile}.json"
            base = ["study", "--population", "150", "--seed", "11",
                    "--days", "2", "--warmup", "2",
                    "--fault-profile", profile]
            assert main(base + ["--export", str(plain)]) == 0
            assert main(base + ["--checkpoint", str(tmp_path / profile),
                                "--export", str(durable)]) == 0
            assert plain.read_bytes() == durable.read_bytes()
            exports[profile] = plain.read_bytes()
        capsys.readouterr()
        assert exports["lossy-default"] != exports["heavy-loss"]

    def test_checkpointed_study_then_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = ["--population", "150", "--seed", "11",
                "--days", "2", "--warmup", "4"]
        code = main(["study", "--checkpoint", ckpt] + base)
        assert code == 0
        assert "Table VI" in capsys.readouterr().out

        # Mismatched seed must refuse with a nonzero exit.
        wrong = ["resume", ckpt, "--population", "150", "--seed", "12",
                 "--days", "2", "--warmup", "4"]
        code = main(wrong)
        captured = capsys.readouterr()
        assert code == 1
        assert "seed" in captured.err

        # Matching inputs resume cleanly (the run is already complete).
        code = main(["resume", ckpt] + base)
        assert code == 0
        assert "Table VI" in capsys.readouterr().out

    def test_study_checkpoint_refuses_reuse(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = ["--population", "150", "--seed", "11",
                "--days", "1", "--warmup", "2"]
        assert main(["study", "--checkpoint", ckpt] + base) == 0
        capsys.readouterr()
        code = main(["study", "--checkpoint", ckpt] + base)
        captured = capsys.readouterr()
        assert code == 1
        assert "already holds a manifest" in captured.err

    def test_kill_matrix_command(self, capsys, tmp_path):
        out_path = tmp_path / "KILLMATRIX.json"
        code = main([
            "kill-matrix", "--population", "150", "--seed", "11",
            "--days", "1", "--warmup", "4",
            "--workdir", str(tmp_path / "work"), "--out", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "3 crash case(s)" in printed
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert len(payload["cases"]) == 3


class TestShardFlags:
    def test_study_shard_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.shards == 1
        assert args.shard_mode == "process"

    def test_kill_matrix_shard_defaults_to_inline(self):
        args = build_parser().parse_args(["kill-matrix"])
        assert args.shards == 1
        assert args.shard_mode == "inline"

    def test_sharded_study_fault_profile_runs_unchecked(
        self, capsys, tmp_path
    ):
        # The fault-free export differs, so the unchecked sharded run
        # really installed heavy-loss rather than ignoring the flag.
        clean = tmp_path / "clean.json"
        plain = tmp_path / "plain.json"
        durable = tmp_path / "durable.json"
        base = ["study", "--population", "60", "--seed", "5",
                "--days", "2", "--warmup", "3",
                "--shards", "2", "--shard-mode", "inline"]
        faulty = base + ["--fault-profile", "heavy-loss"]
        assert main(base + ["--export", str(clean)]) == 0
        assert main(faulty + ["--export", str(plain)]) == 0
        assert main(faulty + ["--checkpoint", str(tmp_path / "ckpt"),
                              "--export", str(durable)]) == 0
        capsys.readouterr()
        assert plain.read_bytes() == durable.read_bytes()
        assert plain.read_bytes() != clean.read_bytes()

    def test_sharded_study_command_small(self, capsys, tmp_path):
        export = tmp_path / "report.json"
        code = main([
            "study", "--population", "60", "--seed", "5",
            "--days", "2", "--warmup", "3",
            "--shards", "2", "--shard-mode", "inline",
            "--export", str(export),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "SIX-WEEK STUDY" in printed or "study" in printed.lower()
        assert json.loads(export.read_text())["population_size"] == 60


class TestTrafficFlags:
    def test_traffic_defaults_to_none(self):
        for command in (["study"], ["bench"], ["kill-matrix"]):
            assert build_parser().parse_args(command).traffic is None

    def test_unknown_profile_rejected(self, capsys):
        code = main([
            "study", "--population", "60", "--days", "1", "--warmup", "1",
            "--traffic", "tsunami",
        ])
        assert code == 2
        assert "unknown traffic profile" in capsys.readouterr().err

    def test_traffic_list_command(self, capsys):
        assert main(["traffic"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "surge", "flood"):
            assert name in out

    def test_traffic_drive_command(self, capsys):
        code = main([
            "traffic", "--profile", "flood",
            "--population", "200", "--days", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile flood" in out
        assert "load tier now" in out

    def test_traffic_none_profile_is_a_no_op(self, capsys):
        assert main(["traffic", "--profile", "none"]) == 0
        assert "no background traffic" in capsys.readouterr().out

    def test_study_with_traffic_matches_plain_run_when_steady(
        self, capsys, tmp_path
    ):
        plain, steady = tmp_path / "plain.json", tmp_path / "steady.json"
        base = [
            "study", "--population", "60", "--seed", "5",
            "--days", "2", "--warmup", "3",
        ]
        assert main(base + ["--export", str(plain)]) == 0
        assert main(
            base + ["--traffic", "steady", "--export", str(steady)]
        ) == 0
        capsys.readouterr()
        assert plain.read_text() == steady.read_text()


class TestAttackFlags:
    def test_attacks_defaults_to_none(self):
        for command in (
            ["study"],
            ["bench"],
            ["kill-matrix"],
            ["chaos", "--profile", "lossy-default"],
        ):
            assert build_parser().parse_args(command).attacks is None

    def test_unknown_profile_rejected(self, capsys):
        code = main([
            "study", "--population", "60", "--days", "1", "--warmup", "1",
            "--attacks", "armageddon",
        ])
        assert code == 2
        assert "unknown attack profile" in capsys.readouterr().err

    def test_attacks_list_command(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        for name in ("quiet", "skirmish", "campaign", "blitz"):
            assert name in out

    def test_attacks_drive_command(self, capsys):
        code = main([
            "attacks", "--profile", "campaign",
            "--population", "200", "--days", "42",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile campaign: schedule" in out
        assert "OVERWHELMS" in out
        assert "drove 42 day(s)" in out

    def test_attacks_none_profile_is_a_no_op(self, capsys):
        assert main(["attacks", "--profile", "none"]) == 0
        assert "no attacks to drive" in capsys.readouterr().out

    def test_study_with_attacks_matches_plain_run_when_quiet(
        self, capsys, tmp_path
    ):
        import json

        plain, quiet = tmp_path / "plain.json", tmp_path / "quiet.json"
        base = [
            "study", "--population", "60", "--seed", "5",
            "--days", "2", "--warmup", "3",
        ]
        assert main(base + ["--export", str(plain)]) == 0
        assert main(
            base + ["--attacks", "quiet", "--export", str(quiet)]
        ) == 0
        capsys.readouterr()
        plain_payload = json.loads(plain.read_text())
        quiet_payload = json.loads(quiet.read_text())
        assert plain_payload.pop("attacks") is None
        assert quiet_payload.pop("attacks")["events"] == []
        assert plain_payload == quiet_payload


class TestErrorMapping:
    """Every command turns a refusal into one line and an exit code."""

    @pytest.mark.parametrize(
        "command",
        [
            ["study"],
            ["scan"],
            ["attack"],
            ["purge-probe"],
            ["bench"],
            ["chaos", "--profile", "lossy-default"],
            ["traffic", "--profile", "surge"],
            ["attacks", "--profile", "skirmish"],
            ["kill-matrix", "--workdir", "work"],
        ],
    )
    def test_empty_population_exits_2(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        code = main(command + ["--population", "0"])
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith(f"repro {command[0]}: ")
        assert "population" in err and "\n" not in err

    @pytest.mark.parametrize("command", ["study", "kill-matrix"])
    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--days", "-1"], "study_days"),
            (["--warmup", "-1"], "warmup_days"),
        ],
    )
    def test_negative_study_length_exits_2(self, capsys, command, flags, field):
        code = main([command, "--population", "60"] + flags)
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err == f"repro {command}: {field} must be >= 0, got -1"

    def test_negative_resume_length_exits_2(self, capsys, tmp_path):
        code = main(["resume", str(tmp_path / "ckpt"), "--days", "-1"])
        assert code == 2
        assert "study_days must be >= 0" in capsys.readouterr().err

    def test_kill_matrix_zero_shards_exits_2(self, capsys, tmp_path):
        code = main([
            "kill-matrix", "--population", "60", "--days", "1",
            "--warmup", "1", "--shards", "0",
            "--workdir", str(tmp_path / "work"),
            "--out", str(tmp_path / "KILLMATRIX.json"),
        ])
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err == "repro kill-matrix: shard_count must be >= 1, got 0"
        assert not (tmp_path / "KILLMATRIX.json").exists()

    def test_kill_matrix_rerun_into_used_workdir_exits_1(self, capsys, tmp_path):
        argv = [
            "kill-matrix", "--population", "60", "--seed", "5",
            "--days", "0", "--warmup", "1",
            "--workdir", str(tmp_path / "work"),
            "--out", str(tmp_path / "KILLMATRIX.json"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err.strip()
        assert code == 1
        assert err.startswith("repro kill-matrix: ")
        assert "already holds a manifest" in err


def _field(kind):
    return kind.field


class TestPlaneFlags:
    """The plane flags are generated from :data:`repro.scenario.PLANES`."""

    @pytest.mark.parametrize("kind", PLANES, ids=_field)
    @pytest.mark.parametrize(
        "command", [["study"], ["resume", "ckpt"], ["kill-matrix"]]
    )
    def test_study_verbs_take_every_plane(self, command, kind):
        name = Scenario.known(kind.field)[0]
        assert getattr(build_parser().parse_args(command), kind.field) is None
        args = build_parser().parse_args(command + [kind.flag, name])
        assert getattr(args, kind.field) == name

    @pytest.mark.parametrize("kind", PLANES, ids=_field)
    @pytest.mark.parametrize(
        "command", [["bench"], ["chaos", "--profile", "lossy-default"]]
    )
    def test_bench_and_chaos_take_every_plane_but_faults(self, command, kind):
        name = Scenario.known(kind.field)[0]
        if kind.field == "fault":
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + [kind.flag, name])
        else:
            args = build_parser().parse_args(command + [kind.flag, name])
            assert getattr(args, kind.field) == name
