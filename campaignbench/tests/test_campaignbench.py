"""The campaign benchmark's own tests.

    python3 -m pytest campaignbench/tests -q

The smoke tests drive ``run.py`` exactly as a benchmark run does, on a
tiny population, from a scratch copy of ``src/`` so the digest ledger
they write stays out of the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as runner  # noqa: E402
from campaign import artifact_digest  # noqa: E402
from spans import coverage, self_times, union_length  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

TINY = ["--population", "150", "--seconds", "1"]


def bench(cwd: Path, *args: str) -> "tuple[int, dict, dict]":
    """Run the runner; returns (exit code, diagnostics, result)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    diagnostics = json.loads(lines[-2])["diagnostics"] if len(lines) > 1 else {}
    result = json.loads(lines[-1]) if lines else {}
    return done.returncode, diagnostics, result


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_pinned_digests_hold_sharded_to_monolithic():
    pins = json.loads((BENCH / "digests.json").read_text())
    assert set(pins["digests"]) == set(WORKLOADS)
    assert pins["digests"]["campaign_sharded"] == pins["digests"]["campaign"]


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ("root", "a", 0.0, 10.0, -1),
        ("left", "b", 1.0, 4.0, 0),
        ("right", "b", 3.0, 6.0, 0),   # overlaps left: covered once
        ("leaf", "c", 2.0, 3.0, 1),
        ("spill", "c", 5.5, 7.0, 2),   # clipped to its parent's end
        ("later", "a", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0, 1.5, 1.0])
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert coverage(spans, 0.0, 12.0) == pytest.approx(11.0 / 12.0)


def test_digest_gate_trips_on_a_perturbed_report():
    report = {"fig2": {"overall_adoption_rate": 0.25}, "table6": [1, 2]}
    rendered = "Fig. 2 ..."
    digest = artifact_digest(report, rendered)
    perturbed = artifact_digest({**report, "table6": [1, 3]}, rendered)
    assert perturbed != digest
    assert artifact_digest(report, rendered + " ") != digest

    workload = WORKLOADS["campaign"]
    ledger = {}
    runner.check_digests(workload, 7, [digest, digest], None, ledger, "f")
    runner.check_digests(WORKLOADS["campaign_sharded"], 7, [digest], None,
                         ledger, "f")
    with pytest.raises(runner.GateError, match="recorded by campaign"):
        runner.check_digests(WORKLOADS["campaign_sharded"], 7, [perturbed],
                             None, ledger, "f")
    with pytest.raises(runner.GateError, match="disagree"):
        runner.check_digests(workload, 8, [digest, perturbed], None, {}, "f")
    pins = {"seed": 7, "digests": {"campaign": digest}}
    with pytest.raises(runner.GateError, match="pinned"):
        runner.check_digests(workload, 7, [perturbed], pins, {}, "f")
    runner.check_digests(workload, 8, [perturbed], pins, {}, "f")  # other seed


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_reports_every_metric(checkout, trace):
    digests = {}
    for name in WORKLOADS:
        code, diagnostics, result = bench(
            checkout, "--workload", name, "--seed", "11", "--trace", trace, *TINY
        )
        assert code == 0, diagnostics
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] == (
            150 * WORKLOADS[name].study_days * len(diagnostics["runs"])
        )
        expected = PER_LAYER if trace == "1" else END_TO_END
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert diagnostics["pythonhashseed"] == "0"
        digests[name] = {run["digest"] for run in diagnostics["runs"]}
    # Tiny campaign_sharded is byte-identical to campaign.
    assert digests["campaign_sharded"] == digests["campaign"]
    assert len(digests["campaign"]) == 1


def test_traced_run_covers_the_wall_and_attributes_layers(checkout):
    code, _, result = bench(checkout, "--workload", "campaign_durable",
                            "--seed", "11", "--trace", "1", *TINY)
    assert code == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["checkpoint.barriers"] == WORKLOADS["campaign_durable"].study_days + 1
    assert metrics["checkpoint.bytes"] > 0
    assert metrics["traffic.drive_s"] > 0 and metrics["attacks.drive_s"] > 0
    assert metrics["shard.op.collect_s"] == 0


def test_gate_failure_fails_the_run(checkout):
    args = ["--workload", "campaign", "--seed", "12", "--trace", "0", *TINY]
    code, _, _ = bench(checkout, *args)
    assert code == 0
    ledger_path = checkout / ".campaignbench" / "ledger.json"
    ledger = json.loads(ledger_path.read_text())
    for entry in ledger.values():
        entry["digest"] = "0" * 64
    ledger_path.write_text(json.dumps(ledger))
    code, diagnostics, result = bench(checkout, *args)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "recorded by campaign" in diagnostics["gate_error"]


def test_refuses_outside_a_checkout(tmp_path):
    code, _, result = bench(tmp_path, "--workload", "campaign", "--seed", "1",
                            "--seconds", "1", "--trace", "0")
    assert code != 0 and result == {}
