"""Campaign benchmark runner.

    python3 campaignbench/run.py --workload campaign --seed 2018 \
        --seconds 40 --trace 0

Run from the root of a checkout.  Each measured run of the campaign is
a fresh interpreter (``campaign.py``) with ``PYTHONHASHSEED`` pinned;
runs go strictly one after another until the next one would overrun
``--seconds`` (at least three).  ``--trace 0`` reports the end-to-end
medians; ``--trace 1`` alternates untraced and traced runs and reports
the per-layer numbers of the traced run plus the tracing overhead.

Every run's artifacts pass a digest gate: all runs agree, the default
seed matches the digests pinned in ``digests.json``, and a ledger in
``.campaignbench/`` makes runs of the same inputs on the same source
tree agree across invocations — which is what holds ``campaign_sharded``
to ``campaign``.  The last stdout line is the JSON result; the line
before it carries per-run records and host diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from workloads import (
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    PYTHONHASHSEED,
    WORKLOADS,
    Workload,
)

HERE = Path(__file__).resolve().parent

MIN_RUNS = 3
#: Every invocation must end within 180 s; leave room to clean up.
HARD_LIMIT_S = 165.0
PINS_PATH = HERE / "digests.json"


class GateError(Exception):
    """The artifacts of a run disagree with what they must equal."""


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_fingerprint(src: Path) -> str:
    """sha256 of the program's source tree, keying the digest ledger."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_digests(
    workload: Workload,
    seed: int,
    digests: List[str],
    pins: Optional[Dict[str, object]],
    ledger: Dict[str, Dict[str, str]],
    fingerprint: str,
) -> None:
    """Raise :class:`GateError` unless the runs' digests are consistent.

    ``pins`` is None when the workload runs at a shrunk shape, which has
    no pinned digest.  Records the digest in ``ledger`` when the inputs
    are new to it.
    """
    if len(set(digests)) != 1:
        raise GateError(f"runs of one workload disagree: {sorted(set(digests))}")
    digest = digests[0]
    if pins is not None and seed == pins["seed"]:
        expected = pins["digests"][workload.name]
        if digest != expected:
            raise GateError(
                f"{workload.name} seed {seed}: digest {digest} != pinned {expected}"
            )
    key = f"{fingerprint};{workload.inputs_key(seed)}"
    entry = ledger.setdefault(key, {"digest": digest, "workload": workload.name})
    if entry["digest"] != digest:
        raise GateError(
            f"{workload.name} seed {seed}: digest {digest} != {entry['digest']} "
            f"recorded by {entry['workload']} for the same inputs"
        )


def steal_seconds() -> Optional[float]:
    """CPU-steal time of the whole host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_sample() -> Dict[str, object]:
    return {
        "loadavg": list(os.getloadavg()),
        "steal_s": steal_seconds(),
    }


def run_once(
    workload: Workload, args, trace: bool, workdir: Path, timeout: float
) -> Dict[str, object]:
    """One measured campaign in a fresh interpreter, in its own session so
    a timeout takes its shard workers down with it."""
    command = [
        sys.executable, str(HERE / "campaign.py"),
        "--workload", workload.name,
        "--seed", str(args.seed),
        "--trace", "1" if trace else "0",
        "--workdir", str(workdir),
    ]
    if args.population is not None:
        command += ["--population", str(args.population)]
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED,
               PYTHONPATH=str(Path.cwd() / "src"))
    started = time.perf_counter()
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, timeout))
        failure = None if process.returncode == 0 else (
            f"exit {process.returncode}: {stderr.strip()[-2000:]}"
        )
    except subprocess.TimeoutExpired:
        # The session id is the child's pid, still unreaped here.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        stdout, failure = "", f"timed out after {timeout:.0f}s"
    shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - started
    if failure is not None:
        return {"ok": False, "traced": trace, "error": failure, "elapsed": elapsed}
    record = json.loads(stdout.strip().splitlines()[-1])
    record.update(ok=True, elapsed=elapsed)
    return record


def end_to_end_metrics(runs: List[Dict[str, object]]) -> Dict[str, float]:
    def median(key):
        return statistics.median(run[key] for run in runs)

    return {
        "wall_s": median("wall_s"),
        "setup_s": median("setup_s"),
        "site_days_per_s": statistics.median(
            run["site_days"] / (run["wall_s"] - run["setup_s"]) for run in runs
        ),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "measured_frac": statistics.median(
            1.0 - run["unmeasured"] / run["site_days"] for run in runs
        ),
    }


def per_layer_metrics(
    traced: List[Dict[str, object]], untraced: List[Dict[str, object]]
) -> Dict[str, float]:
    """The traced run with the median wall, plus the tracing overhead."""
    chosen = sorted(traced, key=lambda run: run["wall_s"])[(len(traced) - 1) // 2]
    baseline = statistics.median(run["wall_s"] for run in untraced)
    metrics = dict(chosen["layers"])
    metrics.update({
        "unmeasured_frac": chosen["unmeasured"] / chosen["site_days"],
        "run.partial_days": chosen["partial_days"],
        "run.partial_scan_weeks": chosen["partial_scan_weeks"],
        "run.scan_queries_throttled": chosen["scan_queries_throttled"],
        "trace.wall_s": chosen["wall_s"],
        "trace.untraced_wall_s": baseline,
        "trace.overhead_s": chosen["wall_s"] - baseline,
    })
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--population", type=int, default=None,
                        help="override the workload's population (smoke tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("campaignbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pinned_shape = args.population is None
    if args.population is not None:
        workload = replace(workload, population=args.population)
    cpus = available_cpus()
    if workload.shards > cpus:
        print(f"campaignbench: {workload.name} forks {workload.shards} workers "
              f"but only {cpus} CPU(s) are available", file=sys.stderr)
        return 2

    out = root / ".campaignbench"
    out.mkdir(exist_ok=True)
    host_before = host_sample()
    started = time.perf_counter()
    runs: List[Dict[str, object]] = []
    while True:
        trace = bool(args.trace) and len(runs) % 2 == 1
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        runs.append(run_once(workload, args, trace,
                             out / f"run-{os.getpid()}-{len(runs)}", remaining))
        elapsed = time.perf_counter() - started
        longest = max(run["elapsed"] for run in runs)
        if elapsed + longest > (args.seconds if len(runs) >= MIN_RUNS else HARD_LIMIT_S):
            break
    host_after = host_sample()

    ok = [run for run in runs if run["ok"]]
    gate_error = None
    if ok:
        ledger_path = out / "ledger.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        pins = json.loads(PINS_PATH.read_text()) if pinned_shape else None
        try:
            check_digests(workload, args.seed, [run["digest"] for run in ok], pins,
                          ledger, source_fingerprint(root / "src" / "repro"))
        except GateError as exc:
            gate_error = str(exc)
        else:
            tmp = ledger_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
            tmp.replace(ledger_path)

    site_days = workload.population * workload.study_days
    attempted = site_days * len(runs)
    # A run that crashed counts every site-day as failed; so does every
    # run when the artifacts fail the gate.
    failed = attempted if gate_error else site_days * (len(runs) - len(ok))
    correct = failed == 0
    untraced = [run for run in ok if not run["traced"]]
    traced = [run for run in ok if run["traced"]]
    if args.trace:
        names = PER_LAYER
        values = per_layer_metrics(traced, untraced) if traced and untraced else {}
    else:
        names = END_TO_END
        values = end_to_end_metrics(untraced) if untraced else {}

    diagnostics = {
        "workload": workload.name,
        "seed": args.seed,
        "population": workload.population,
        "study_days": workload.study_days,
        "pythonhashseed": PYTHONHASHSEED,
        "cpus": cpus,
        "python": platform.python_version(),
        "loadavg": [host_before["loadavg"], host_after["loadavg"]],
        "steal_s": (
            host_after["steal_s"] - host_before["steal_s"]
            if host_before["steal_s"] is not None and host_after["steal_s"] is not None
            else None
        ),
        "gate_error": gate_error,
        "failure_accounting": {
            "attempted_site_days": attempted,
            "failed_site_days": failed,
            "unmeasured_site_days": sum(run["unmeasured"] for run in ok),
            "partial_days": sum(run["partial_days"] for run in ok),
            "partial_scan_weeks": sum(run["partial_scan_weeks"] for run in ok),
            "scan_queries_throttled": sum(run["scan_queries_throttled"] for run in ok),
        },
        "runs": [
            {key: value for key, value in run.items() if key != "layers"}
            for run in runs
        ],
    }
    print(json.dumps({"diagnostics": diagnostics}))
    if gate_error:
        print(f"campaignbench: artifact gate failed: {gate_error}", file=sys.stderr)
    for run in runs:
        if not run["ok"]:
            print(f"campaignbench: run failed: {run['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name), "unit": unit} for name, unit in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
