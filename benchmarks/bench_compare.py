"""Compare two BENCH payloads: gate on counters, report wall time.

Usage::

    python benchmarks/bench_compare.py BASELINE.json CANDIDATE.json

The E1 collection counters are pure functions of (population, seed,
warmup) — byte-identical across machines and Python versions — so any
difference means the query path's *work* changed, not just its speed,
and the script exits 1.  Wall times vary with hardware; they are
printed for the perf trajectory but never gated.  So are the host
fields a payload records, ``cpus`` and ``python`` (``unrecorded`` for
payloads older than them): they say what a wall time was measured on.

A payload may also carry a ``lint_wall`` section (``benchmarks/lint_wall.py
--merge-into``): the self-lint's cold/warm wall time and cache speedup.
Printed when present, never gated — the correctness properties (zero
warm re-parses, identical findings) are tier-1 tests.
"""

from __future__ import annotations

import json
import sys
from typing import Dict


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare(baseline: Dict[str, object], candidate: Dict[str, object]) -> int:
    """Print the comparison; return the process exit code."""
    for key in ("population", "seed", "warmup_days"):
        if baseline.get(key) != candidate.get(key):
            print(
                f"bench-compare: parameter mismatch on {key!r}: "
                f"baseline={baseline.get(key)} candidate={candidate.get(key)}"
                " — the runs are not comparable"
            )
            return 1

    base_e1 = baseline["e1_collection"]
    cand_e1 = candidate["e1_collection"]
    base_counters: Dict[str, int] = dict(base_e1["counters"])
    cand_counters: Dict[str, int] = dict(cand_e1["counters"])

    drift = []
    for name in sorted(set(base_counters) | set(cand_counters)):
        before = base_counters.get(name)
        after = cand_counters.get(name)
        if before != after:
            drift.append(f"  {name}: baseline={before} candidate={after}")

    base_wall = float(base_e1["wall_seconds"])
    cand_wall = float(cand_e1["wall_seconds"])
    ratio = cand_wall / base_wall if base_wall else float("inf")
    print(
        f"bench-compare: E1 wall {base_wall:.3f}s -> {cand_wall:.3f}s "
        f"({ratio:.2f}x, reported only)"
    )

    for key in ("cpus", "python"):
        print(
            f"bench-compare: host {key} baseline={baseline.get(key, 'unrecorded')} "
            f"candidate={candidate.get(key, 'unrecorded')} (reported only)"
        )

    _report_lint_wall("baseline", baseline)
    _report_lint_wall("candidate", candidate)

    if drift:
        print(
            f"bench-compare: {len(drift)} E1 counter(s) drifted from "
            "the baseline — the collection path is doing different work:"
        )
        print("\n".join(drift))
        return 1
    print(
        f"bench-compare: all {len(base_counters)} E1 counters "
        "byte-identical to the baseline"
    )
    return 0


def _report_lint_wall(role: str, payload: Dict[str, object]) -> None:
    lint = payload.get("lint_wall")
    if not lint:
        return
    cold = lint["cold"]
    warm = lint["warm"]
    print(
        f"bench-compare: {role} lint wall ({lint['target']}, "
        f"{cold['files']} files, reported only): "
        f"cold {float(cold['wall_seconds']):.3f}s -> "
        f"warm {float(warm['wall_seconds']):.3f}s "
        f"({float(lint['speedup']):.1f}x)"
    )


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    return compare(_load(argv[1]), _load(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
