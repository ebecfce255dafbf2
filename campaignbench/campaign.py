"""One measured campaign, run in a fresh interpreter by ``run.py``.

    PYTHONPATH=src python3 campaignbench/campaign.py --workload campaign \
        --seed 2018 --trace 0 --workdir .campaignbench/scratch

``--population`` overrides the workload's population (smoke tests); the
rest of the shape comes from :data:`workloads.WORKLOADS`.

Runs the workload through the entry point a user starts, renders and
exports the report, and prints one JSON line: the end-to-end timings,
the failure accounting, the artifact digest and, with ``--trace 1``, the
per-layer numbers from :mod:`spans`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from spans import Tracer, coverage, patch, self_times
from workloads import LAYERS, SPAN_SECONDS, WARMUP_DAYS, WORKLOADS, Workload


def artifact_digest(report_dict: Dict[str, object], rendered: str) -> str:
    """sha256 over the canonical JSON export plus the rendered report."""
    canonical = json.dumps(
        report_dict, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256((canonical + "\n" + rendered).encode("utf-8")).hexdigest()


def run_workload(workload: Workload, seed: int, workdir: Path):
    """The campaign, through the public entry point for its shape."""
    from repro.core.study import SixWeekStudy, StudyConfig

    config = StudyConfig(warmup_days=WARMUP_DAYS, study_days=workload.study_days)
    if workload.shards > 1:
        from repro.shard import run_sharded_study

        return run_sharded_study(
            population=workload.population,
            seed=seed,
            config=config,
            traffic_profile=workload.traffic_profile,
            attack_profile=workload.attack_profile,
            shard_count=workload.shards,
            mode="process",
        )
    if workload.durable:
        from repro.checkpoint import run_checkpointed_study

        return run_checkpointed_study(
            workdir / "checkpoint",
            population=workload.population,
            seed=seed,
            config=config,
            traffic_profile=workload.traffic_profile,
            attack_profile=workload.attack_profile,
        )
    # What `repro study` drives: begin, planes post-warmup, run_day, finalise.
    from repro.world.config import WorldConfig
    from repro.world.internet import SimulatedInternet

    world = SimulatedInternet(WorldConfig(population_size=workload.population, seed=seed))
    study = SixWeekStudy(world, config)
    runtime = study.begin()
    if workload.traffic_profile is not None:
        world.install_traffic(workload.traffic_profile)
    if workload.attack_profile is not None:
        world.install_attacks(workload.attack_profile)
    while not runtime.finished:
        study.run_day(runtime)
    return study.finalise(runtime)


def stamp_begin_returns(workdir: Path) -> None:
    """Record when each process returns from ``SixWeekStudy.begin``.

    Installed before any shard worker forks, so workers stamp too; the
    stamps go to files because a worker's memory is out of reach.
    """
    from repro.core import study as study_module

    def make(begin):
        def stamped(*args, **kwargs):
            runtime = begin(*args, **kwargs)
            now = time.perf_counter()
            with open(workdir / f"begin-{os.getpid()}.stamps", "a") as handle:
                handle.write(f"{now!r}\n")
            return runtime

        return stamped

    patch(study_module, "SixWeekStudy.begin", make)


def read_begin_stamps(workdir: Path) -> Dict[int, List[float]]:
    stamps: Dict[int, List[float]] = {}
    for path in workdir.glob("begin-*.stamps"):
        pid = int(path.name.split("-")[1].split(".")[0])
        stamps[pid] = [float(line) for line in path.read_text().split()]
    return stamps


def setup_end(workload: Workload, stamps: Dict[int, List[float]]) -> float:
    """Barrier 0: the own begin's return, or the last worker's."""
    own = os.getpid()
    if workload.shards > 1:
        workers = [times[0] for pid, times in stamps.items() if pid != own]
        if len(workers) != workload.shards:
            raise RuntimeError(
                f"expected {workload.shards} worker begin stamps, got {len(workers)}"
            )
        return max(workers)
    return stamps[own][0]


def capture_finalise(captured: Dict[str, object]) -> None:
    """Keep the (study, runtime) this process finalises, for the counters."""
    from repro.core import study as study_module

    def make(finalise):
        def capturing(study, runtime):
            captured["study"], captured["runtime"] = study, runtime
            return finalise(study, runtime)

        return capturing

    patch(study_module, "SixWeekStudy.finalise", make)


def layer_metrics(
    workload: Workload,
    records: List[Dict[str, object]],
    coordinator_pid: int,
    start: float,
    end: float,
    captured: Dict[str, object],
    workdir: Path,
) -> Dict[str, float]:
    """Per-layer numbers from every process's spans and the counters."""
    totals: Dict[str, float] = {name: 0.0 for name in SPAN_SECONDS}
    counts: Dict[str, int] = {}
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    observe = gc_s = 0.0
    gen2 = 0
    for record in records:
        spans = record["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, layer, s, e, _ = span
            if name in totals:
                totals[name] += e - s
            counts[name] = counts.get(name, 0) + 1
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if name == "core.study.collect_day":
                observe += own
        gc_s += record["gc_s"]
        gen2 += record["gen2_collections"]
    coordinator = next(r for r in records if r["pid"] == coordinator_pid)["spans"]

    def last(name: str) -> float:
        found = [e - s for n, _, s, e, _ in coordinator if n == name]
        return found[-1] if found else 0.0

    finish_ends = [e for n, _, _, e, _ in coordinator if n == "shard.op.finish"]
    site_days = workload.population * workload.study_days
    metrics: Dict[str, float] = {f"{name}_s": totals[name] for name in SPAN_SECONDS}
    metrics.update({
        "world.build_calls": counts.get("world.build", 0),
        "world.engine.days": counts.get("world.engine.day", 0),
        "core.collector.site_days": site_days,
        "core.collector.us_per_site_day": totals["core.collector.collect"] / site_days * 1e6,
        "core.status.observe_s": observe,
        "checkpoint.barriers": counts.get("checkpoint.append", 0),
        "checkpoint.bytes": sum(
            path.stat().st_size
            for path in (workdir / "checkpoint").rglob("*")
            if path.is_file()
        ),
        "checkpoint.last_barrier_s": last("checkpoint.serialize") + last("checkpoint.append"),
        "shard.replay_s": sum(
            e - s for n, _, s, e, parent in coordinator
            if n == "world.engine.day" and parent < 0
        ),
        "shard.tail_s": end - finish_ends[-1] if finish_ends else 0.0,
        "py.gc_s": gc_s,
        "py.gc.gen2_collections": gen2,
        "trace.coverage": coverage(coordinator, start, end),
    })
    metrics.update({f"self.{layer}_s": layer_self[layer] for layer in LAYERS})

    resolver = captured["runtime"].collection_resolver.metrics
    queries = resolver.value("resolver.queries_sent")
    resolutions = resolver.value("resolver.resolutions")
    hits, misses = resolver.value("cache.hits"), resolver.value("cache.misses")
    metrics.update({
        "dns.resolver.queries_sent": queries,
        "dns.resolver.resolutions": resolutions,
        "dns.resolver.queries_per_resolution": queries / resolutions if resolutions else 0.0,
        "dns.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dns.resolver.failovers": resolver.value("resolver.failovers"),
        "dns.resolver.throttled": resolver.value("resolver.throttled"),
        "dns.resolver.attack_outage": resolver.value("resolver.attack_outage"),
        "dns.resolver.gave_up": resolver.value("resolver.gave_up"),
    })
    fabric = captured["study"].world.fabric
    traffic = fabric.traffic_plane.tallies if fabric.traffic_plane is not None else {}
    metrics["traffic.throttled"] = sum(
        v for k, v in traffic.items() if k.startswith("throttled.")
    )
    metrics["traffic.shed"] = sum(v for k, v in traffic.items() if k.startswith("shed."))
    metrics["attacks.dns_outage"] = (
        fabric.attack_plane.metrics.value("attacks.dns.outage")
        if fabric.attack_plane is not None
        else 0
    )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--population", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.population is not None:
        workload = replace(workload, population=args.population)
    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)

    # Every import happens before the clock starts.
    import repro.checkpoint  # noqa: F401
    import repro.shard  # noqa: F401
    from repro.core.export import report_to_dict, save_report
    from repro.core.report import render_full_report

    tracer = Tracer(dump_dir=workdir) if args.trace else None
    captured: Dict[str, object] = {}
    if tracer is not None:
        tracer.install()
        capture_finalise(captured)
    stamp_begin_returns(workdir)

    def span(name: str):
        return tracer.span(name, "core.report") if tracer is not None else nullcontext()

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    report = run_workload(workload, args.seed, workdir)
    with span("core.report.render"):
        rendered = render_full_report(report)
    with span("core.export.save"):
        save_report(report, workdir / "report.json")
    end = time.perf_counter()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall_gc()

    setup = setup_end(workload, read_begin_stamps(workdir)) - start
    site_days = workload.population * workload.study_days
    record: Dict[str, object] = {
        "traced": bool(args.trace),
        "wall_s": end - start,
        "setup_s": setup,
        "cpu_s": (self_after.ru_utime - self_before.ru_utime)
        + (self_after.ru_stime - self_before.ru_stime)
        + children.ru_utime
        + children.ru_stime,
        "peak_rss_mb": max(self_after.ru_maxrss, children.ru_maxrss) / 1024.0,
        "site_days": site_days,
        "unmeasured": report.total_unmeasured,
        "partial_days": len(report.partial_days),
        "partial_scan_weeks": len(report.partial_scan_weeks),
        "scan_queries_throttled": sum(report.partial_scan_weeks.values()),
        "digest": artifact_digest(report_to_dict(report), rendered),
    }
    if tracer is not None:
        records = [tracer.record()] + [
            json.loads(path.read_text()) for path in sorted(workdir.glob("spans-*.json"))
        ]
        record["layers"] = layer_metrics(
            workload, records, os.getpid(), start, end, captured, workdir
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
