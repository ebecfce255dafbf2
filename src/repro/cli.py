"""Command-line interface.

::

    python -m repro study  [--population N] [--seed S] [--days D] [--warmup W]
                           [--shards N] [--shard-mode inline|process]
                           [--checkpoint DIR] [--export PATH] [PLANE FLAGS]
    python -m repro scan   [--population N] [--seed S] [--warmup W]
    python -m repro attack [--population N] [--seed S] [--gbps G]
    python -m repro purge-probe [--trials T] [--plan PLAN]
    python -m repro bench  [--population N] [--seed S] [--warmup W]
                           [--label L] [--out PATH] [--traffic NAME]
                           [--attacks NAME]
    python -m repro traffic [--profile NAME] [--population N] [--seed S]
                           [--days D]
    python -m repro attacks [--profile NAME] [--population N] [--seed S]
                           [--days D]
    python -m repro chaos  --profile NAME [--population N] [--seed S]
                           [--warmup W] [--out PATH] [--traffic NAME]
                           [--attacks NAME]
    python -m repro resume CHECKPOINT_DIR [--population N] [--seed S]
                           [--days D] [--warmup W] [--export PATH]
                           [--shard-mode inline|process] [PLANE FLAGS]
    python -m repro kill-matrix [--population N] [--seed S] [--days D]
                           [--warmup W] [--workdir DIR] [--out PATH]
                           [--shards N] [--shard-mode inline|process]
                           [PLANE FLAGS]
    python -m repro lint   [paths] [--select IDS] [--ignore IDS]
                           [--format text|json|sarif] [--baseline PATH]
                           [--update-baseline] [--cache PATH] [--no-cache]
                           [--ignore-unused-suppressions] [--jobs N]

``PLANE FLAGS`` are one flag per row of :data:`repro.scenario.PLANES`,
generated from that table: ``--fault-profile NAME``, ``--traffic NAME``
and ``--attacks NAME`` today.

``study`` runs the full six-week campaign and prints every table and
figure; ``scan`` runs one §V residual-resolution sweep; ``attack``
demonstrates the Fig. 1 bypass; ``purge-probe`` reruns the §V-A-3
controlled purge measurement; ``bench`` runs the E1/E8 query-path
workloads and writes a ``BENCH_<label>.json`` trajectory point;
``chaos`` reruns them under a named fault profile against a same-seed
fault-free run, writes ``CHAOS_<profile>.json``, and exits nonzero if
an equivalence profile diverged (or a degradation profile failed to
degrade explicitly); ``study --checkpoint DIR`` commits a durable
checkpoint barrier after every study day; ``resume`` continues a
crashed checkpointed study on the exact deterministic trajectory
(mismatched inputs, corrupt snapshots, and damaged journals are
refused with a nonzero exit); ``kill-matrix`` crashes a checkpointed
study at every barrier in both crash modes, resumes each, and writes a
``KILLMATRIX.json`` divergence report (nonzero exit unless every
resumed run is byte-identical to the uninterrupted reference); ``lint``
runs the determinism and simulation-invariant static analysis (exit 0
clean, 1 findings, 2 usage error).

``study --shards N`` partitions the site population across ``N``
lockstep workers (forked processes by default, ``--shard-mode inline``
for in-process) and merges their measurements into a report
byte-identical to the monolithic run's; with ``--checkpoint`` each
worker keeps its own store under the campaign directory and ``resume``
detects the sharded layout from the coordinator manifest.
``kill-matrix --shards N`` runs the whole matrix through the sharded
plane.  docs/SCALING.md documents the execution model.

The plane flags name the run's :class:`~repro.scenario.Scenario`;
``study``, ``resume`` and ``kill-matrix`` take every one, ``bench`` and
``chaos`` all but the fault flag (``chaos --profile`` names its fault).
Every command maps a configuration error (an out-of-range flag, an
unknown profile) to exit 2 and a refused checkpoint or failed shard to
exit 1, printing one line.

``--fault-profile NAME`` installs a named fault profile after warm-up.
``--traffic NAME`` installs a named background-load profile after
warm-up: the provider fleets serve Zipf-distributed client traffic and
their defense stack (token buckets, adaptive limit tiers, circuit breakers, load
shedding) may throttle the measurement plane, which degrades gracefully
(UNMEASURED observations and partial scans, never fabricated
transitions).  ``repro traffic`` lists the profiles or dry-drives one
and prints its tallies.  docs/ROBUSTNESS.md documents the semantics.

``--attacks NAME`` schedules a deterministic DDoS campaign after
warm-up: volumetric and amplification events strike
site origins, provider fleets, and co-located hosting blocks, drive
emergency JOIN / post-attack LEAVE/SWITCH waves through the world's
behavior engine, surge the background-traffic load, and open transient
outage windows on the victims' nameservers and origins — the
measurement plane degrades gracefully while the study keeps running.
``repro attacks`` lists the profiles or dry-drives one and prints its
schedule and wave tallies.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.attacker import DdosSimulator, ResidualResolutionAttacker
from .core.matching import ProviderMatcher
from .core.purge_probe import PurgeProbe
from .core.report import render_full_report
from .core.study import SixWeekStudy, StudyConfig
from .dps.plans import PlanTier
from .dps.portal import ReroutingMethod
from .errors import CheckpointError, ConfigurationError, ShardError
from .io import atomic_write_json
from .scenario import Scenario, plane_kind
from .world import SimulatedInternet, WorldConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Your Remnant Tells Secret' (DSN 2018)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_world_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--population", type=int, default=2000,
                         help="number of websites (default 2000)")
        sub.add_argument("--seed", type=int, default=2018,
                         help="world seed (default 2018)")

    def add_scenario_args(
        sub: argparse.ArgumentParser, omit: Optional[str] = None
    ) -> None:
        for kind in Scenario.kinds():
            if kind.field != omit:
                sub.add_argument(kind.flag, dest=kind.field, metavar="NAME",
                                 default=None, help=kind.help)

    study = subparsers.add_parser("study", help="run the full six-week campaign")
    add_world_args(study)
    study.add_argument("--days", type=int, default=42,
                       help="study length in days (default 42)")
    study.add_argument("--warmup", type=int, default=56,
                       help="warm-up days before the study (default 56)")
    study.add_argument("--export", metavar="PATH", default=None,
                       help="also write the report as JSON to PATH")
    study.add_argument("--checkpoint", metavar="DIR", default=None,
                       help="commit a durable checkpoint barrier after "
                            "every study day into DIR (resume with "
                            "'repro resume DIR')")
    add_scenario_args(study)
    study.add_argument("--shards", type=int, default=1, metavar="N",
                       help="partition the population across N lockstep "
                            "workers and merge byte-identically (default 1)")
    study.add_argument("--shard-mode", choices=["inline", "process"],
                       default="process",
                       help="how sharded workers execute: forked processes "
                            "or in-process objects (default process)")

    scan = subparsers.add_parser("scan", help="one residual-resolution sweep")
    add_world_args(scan)
    scan.add_argument("--warmup", type=int, default=45,
                      help="days of dynamics before the sweep (default 45)")

    attack = subparsers.add_parser("attack", help="demonstrate the Fig. 1 bypass")
    add_world_args(attack)
    attack.add_argument("--gbps", type=float, default=900.0,
                        help="attack volume in Gbps (default 900)")

    probe = subparsers.add_parser("purge-probe", help="the §V-A-3 purge probe")
    add_world_args(probe)
    probe.add_argument("--trials", type=int, default=3)
    probe.add_argument(
        "--plan", choices=[t.value for t in PlanTier], default="free"
    )

    bench = subparsers.add_parser(
        "bench",
        help="query-path benchmark: E1/E8 workloads -> BENCH_<label>.json",
    )
    add_world_args(bench)
    bench.add_argument("--warmup", type=int, default=7,
                       help="days of world dynamics before the workloads "
                            "(default 7)")
    bench.add_argument("--label", default=None,
                       help="trajectory label (default: p<population>)")
    bench.add_argument("--out", metavar="PATH", default=None,
                       help="output path (default: BENCH_<label>.json)")
    add_scenario_args(bench, omit="fault")

    chaos = subparsers.add_parser(
        "chaos",
        help="E1/E8 under a fault profile, diffed against a fault-free run",
    )
    chaos.add_argument("--profile", dest="fault", required=True,
                       choices=Scenario.known("fault"),
                       help="named fault profile to inject")
    chaos.add_argument("--population", type=int, default=400,
                       help="number of websites (default 400)")
    chaos.add_argument("--seed", type=int, default=2018,
                       help="world seed (default 2018)")
    chaos.add_argument("--warmup", type=int, default=21,
                       help="days of world dynamics before the workloads "
                            "(default 21)")
    chaos.add_argument("--out", metavar="PATH", default=None,
                       help="output path (default: CHAOS_<profile>.json)")
    add_scenario_args(chaos, omit="fault")

    resume = subparsers.add_parser(
        "resume", help="continue a crashed checkpointed study"
    )
    resume.add_argument("checkpoint", metavar="CHECKPOINT_DIR",
                        help="checkpoint directory written by "
                             "'repro study --checkpoint'")
    add_world_args(resume)
    resume.add_argument("--days", type=int, default=42,
                        help="study length in days (default 42)")
    resume.add_argument("--warmup", type=int, default=56,
                        help="warm-up days before the study (default 56)")
    add_scenario_args(resume)
    resume.add_argument("--export", metavar="PATH", default=None,
                        help="also write the report as JSON to PATH")
    resume.add_argument("--shard-mode", choices=["inline", "process"],
                        default="process",
                        help="worker execution mode when the checkpoint is "
                             "a sharded campaign (default process)")

    killmatrix = subparsers.add_parser(
        "kill-matrix",
        help="crash a checkpointed study at every barrier, resume, "
             "and demand byte-identical artifacts",
    )
    killmatrix.add_argument("--population", type=int, default=2000,
                            help="number of websites (default 2000)")
    killmatrix.add_argument("--seed", type=int, default=2018,
                            help="world seed (default 2018)")
    killmatrix.add_argument("--days", type=int, default=4,
                            help="study length in days (default 4)")
    killmatrix.add_argument("--warmup", type=int, default=10,
                            help="warm-up days before the study (default 10)")
    add_scenario_args(killmatrix)
    killmatrix.add_argument("--workdir", metavar="DIR", default=None,
                            help="where the matrix keeps its checkpoint "
                                 "directories (default: a fresh temp dir)")
    killmatrix.add_argument("--out", metavar="PATH", default="KILLMATRIX.json",
                            help="divergence report path "
                                 "(default: KILLMATRIX.json)")
    killmatrix.add_argument("--shards", type=int, default=1, metavar="N",
                            help="run the matrix through the sharded "
                                 "execution plane with N workers (default 1)")
    killmatrix.add_argument("--shard-mode", choices=["inline", "process"],
                            default="inline",
                            help="worker execution mode for sharded matrix "
                                 "runs (default inline)")

    traffic = subparsers.add_parser(
        "traffic",
        help="inspect background-traffic profiles (list, or dry-drive one)",
    )
    add_world_args(traffic)
    traffic.add_argument("--profile", metavar="NAME", default=None,
                         help="drive this profile against a built world and "
                              "print its tallies (default: list profiles)")
    traffic.add_argument("--days", type=int, default=7,
                         help="days of load to drive with --profile "
                              "(default 7)")

    attacks = subparsers.add_parser(
        "attacks",
        help="inspect attack profiles (list, or dry-drive one)",
    )
    add_world_args(attacks)
    attacks.add_argument("--profile", metavar="NAME", default=None,
                         help="drive this campaign against a built world "
                              "and print its schedule and wave tallies "
                              "(default: list profiles)")
    attacks.add_argument("--days", type=int, default=42,
                         help="days of dynamics to drive with --profile "
                              "(default 42)")

    lint = subparsers.add_parser(
        "lint", help="determinism & simulation-invariant static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default=None, metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="output_format", help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline", default="lint-baseline.txt", metavar="PATH",
        help="baseline (allowlist) file (default: lint-baseline.txt)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover all current findings",
    )
    lint.add_argument(
        "--cache", default=".repro-lint-cache.json", metavar="PATH",
        help="incremental cache file (default: .repro-lint-cache.json)",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache for this run",
    )
    lint.add_argument(
        "--ignore-unused-suppressions", action="store_true",
        help="do not report inline suppressions that matched no finding",
    )
    lint.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cold-start parsing (0 = one per CPU;"
             " default: 1, serial)",
    )
    return parser


def _default_lint_paths() -> List[str]:
    """Lint ``src/repro`` when run from a checkout, else the package."""
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    return [os.path.dirname(os.path.abspath(__file__))]


def _cmd_lint(args) -> int:
    from .analysis import (
        Analyzer,
        Baseline,
        render_json,
        render_sarif,
        render_text,
    )
    from .errors import AnalysisError

    def split_ids(raw: Optional[str]) -> Optional[List[str]]:
        if raw is None:
            return None
        ids = [part.strip() for part in raw.split(",") if part.strip()]
        if not ids:
            raise AnalysisError("empty rule-ID list for --select/--ignore")
        return ids

    try:
        analyzer = Analyzer(
            select=split_ids(args.select),
            ignore=split_ids(args.ignore),
            cache_path=None if args.no_cache else args.cache,
            ignore_unused_suppressions=args.ignore_unused_suppressions,
            jobs=args.jobs,
        )
        result = analyzer.analyze(args.paths or _default_lint_paths())
        baseline = Baseline.load(args.baseline)
        if args.update_baseline:
            updated = Baseline.from_findings(
                result.findings, previous=baseline
            )
            updated.save(args.baseline)
            dropped = sum(
                1
                for entry in baseline.entries()
                if entry.fingerprint not in updated
            )
            print(
                f"baseline updated: {len(result.findings)} entry(ies), "
                f"{dropped} stale entry(ies) dropped -> {args.baseline}"
            )
            return 0
        new, suppressed = baseline.split(result.findings)
    except AnalysisError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    renderer = {
        "json": render_json,
        "sarif": render_sarif,
    }.get(args.output_format, render_text)
    print(renderer(
        new,
        suppressed,
        baseline,
        inline_suppressed=result.inline_suppressed,
        stats=result.stats.to_dict(),
    ))
    return 1 if new else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Every command shares one error mapping: a configuration error (an
    out-of-range flag, an unknown profile) exits 2, a refused checkpoint
    or a failed shard exits 1, each with one line on stderr.
    """
    args = build_parser().parse_args(argv)
    command = {
        "study": _cmd_study,
        "scan": _cmd_scan,
        "attack": _cmd_attack,
        "purge-probe": _cmd_purge_probe,
        "bench": _cmd_bench,
        "traffic": _cmd_traffic,
        "attacks": _cmd_attacks,
        "chaos": _cmd_chaos,
        "resume": _cmd_resume,
        "kill-matrix": _cmd_kill_matrix,
        "lint": _cmd_lint,
    }[args.command]
    try:
        return command(args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, ShardError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


def _world(args) -> SimulatedInternet:
    return SimulatedInternet(
        WorldConfig(population_size=args.population, seed=args.seed)
    )


def _config(args) -> StudyConfig:
    return StudyConfig(warmup_days=args.warmup, study_days=args.days)


def _scenario(args) -> Scenario:
    """The planes named on the command line; a flag a command lacks is off."""
    return Scenario.of(
        **{
            kind.keyword: getattr(args, kind.field, None)
            for kind in Scenario.kinds()
        }
    )


def _cmd_chaos(args) -> int:
    from .faults.chaos import run_chaos

    report = run_chaos(
        _scenario(args),
        population=args.population,
        seed=args.seed,
        warmup_days=args.warmup,
    )
    out_path = args.out or f"CHAOS_{report['profile']}.json"
    atomic_write_json(out_path, report)
    retries = report["retries"]
    print(f"profile {report['profile']} "
          f"({'equivalence' if report['expect_equivalence'] else 'degradation'}): "
          f"{report['faults_injected']} faults injected, "
          f"retries resolver={retries['resolver']} client={retries['client']} "
          f"http={retries['http']}")
    if report["identical"]:
        print("artifacts identical to the fault-free run")
    else:
        print(f"{report['unmeasured_sites']} unmeasured site(s), "
              f"{len(report['quarantined_nameservers'])} quarantined "
              f"nameserver(s); divergences:")
        for divergence in report["divergences"][:10]:
            print(f"  {divergence}")
    print(f"chaos report written to {out_path}")
    if not report["passed"]:
        print("chaos check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:  # repro: allow[REP040] -- run_bench's wall-clock reads are the bench's output, not simulation state
    from .obs.bench import run_bench

    scenario = _scenario(args)
    result = run_bench(
        _world(args),
        warmup_days=args.warmup,
        label=args.label,
        traffic=scenario.traffic,
        attacks=scenario.attacks,
    )
    out_path = args.out or f"BENCH_{result['label']}.json"
    atomic_write_json(out_path, result)
    e1 = result["e1_collection"]
    e8 = result["e8_residual_scan"]
    comparison = e8["query_path_comparison"]
    print(f"E1 collection: {e1['resolved']}/{e1['hostnames']} resolved, "
          f"{e1['counters'].get('resolver.queries_sent', 0)} queries, "
          f"{e1['counters'].get('cache.hits', 0)} cache hits")
    print(f"E8 residual scan: {e8['harvested_nameservers']} nameservers, "
          f"cf retrieved={e8['cloudflare_retrieved']} "
          f"hidden={e8['cloudflare_hidden']}, "
          f"incap retrieved={e8['incapsula_retrieved']} "
          f"hidden={e8['incapsula_hidden']}")
    if comparison:
        batched = comparison["batched"]["queries_per_resolved"]
        naive = comparison["naive"]["queries_per_resolved"]
        print(f"query path: batched {batched:.2f} vs naive {naive:.2f} "
              f"queries/resolved name")
    traffic = result.get("traffic")
    if traffic:
        sheds = sum(
            count
            for name, count in traffic["defense_counters"].items()
            if name.endswith(".shed") or name.endswith(".throttled")
        )
        print(f"traffic [{traffic['profile']}]: tier={traffic['tier']}, "
              f"{sheds} measurement deliveries throttled/shed")
    print(f"bench written to {out_path}")
    return 0


def _cmd_study(args) -> int:
    from .shard.runner import run_campaign

    report = run_campaign(
        population=args.population,
        seed=args.seed,
        config=_config(args),
        shard_count=args.shards,
        mode=args.shard_mode,
        checkpoint_dir=args.checkpoint,
        **_scenario(args).identity(),
    )
    return _print_study_report(report, args.export)


def _print_study_report(report, export: Optional[str]) -> int:
    print(render_full_report(report))
    if export:
        from .core.export import save_report

        path = save_report(report, export)
        print(f"\nreport exported to {path}")
    return 0


def _cmd_resume(args) -> int:
    from .shard.runner import resume_campaign

    # The manifest says whether this is a one-worker run or a sharded
    # campaign; the operator never passes a shard count.
    report = resume_campaign(
        args.checkpoint,
        population=args.population,
        seed=args.seed,
        config=_config(args),
        mode=args.shard_mode,
        **_scenario(args).identity(),
    )
    return _print_study_report(report, args.export)


def _cmd_kill_matrix(args) -> int:
    import tempfile

    from .checkpoint import run_kill_matrix

    # Validated before the temp dir exists, so a refusal leaves nothing.
    config = _config(args)
    scenario = _scenario(args)
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-killmatrix-")
    payload = run_kill_matrix(
        workdir,
        population=args.population,
        seed=args.seed,
        config=config,
        shards=args.shards,
        shard_mode=args.shard_mode,
        **scenario.identity(),
    )
    atomic_write_json(args.out, payload)
    failed = [c for c in payload["cases"] if not c["passed"]]
    print(f"kill matrix: {len(payload['cases'])} crash case(s), "
          f"{len(payload['refusals'])} refusal check(s), "
          f"{len(failed)} failure(s)")
    for case in failed:
        print(f"  {case['mode']} @ barrier {case['barrier']}: "
              f"{'; '.join(case['divergences'][:5]) or 'failed'}")
    for refusal in payload["refusals"]:
        verdict = "ok" if refusal["passed"] else "FAILED"
        print(f"  refusal {refusal['check']}: {verdict}")
    print(f"divergence report written to {args.out}")
    if not payload["passed"]:
        print("kill matrix FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_traffic(args) -> int:
    from .obs.metrics import MetricsRegistry
    from .traffic import TRAFFIC_PROFILES

    if args.profile is None:
        print("background-traffic profiles:")
        for name in sorted(TRAFFIC_PROFILES):
            profile = TRAFFIC_PROFILES[name]
            kind = "equivalence" if profile.expect_equivalence else "degradation"
            surge = (f"surge x{profile.surge_multiplier:.1f} every "
                     f"{profile.surge_period_days} day(s)"
                     if profile.surge_period_days else "no surges")
            print(f"  {name:<8} ({kind}): "
                  f"{profile.base_daily_queries} queries/region/day, "
                  f"utilization {profile.target_utilization:.2f}, {surge}")
            print(f"           {profile.description}")
        print("('none' disables background traffic)")
        return 0
    name = plane_kind("traffic").normalize(args.profile)
    if name is None:
        print("profile 'none': no background traffic to drive")
        return 0
    world = _world(args)
    metrics = MetricsRegistry()
    plane = world.install_traffic(name, metrics=metrics)
    world.engine.run_days(args.days)
    print(f"profile {name}: drove {args.days} day(s) at "
          f"population {args.population}, seed {args.seed}")
    print(f"  load tier now: {plane.tier}")
    for key in sorted(plane.tallies):
        print(f"  {key}: {plane.tallies[key]}")
    open_breakers = [
        bname
        for bname, state, _failures, _trips, _open_until
        in plane.drive_state()["breakers"]
        if state != "closed"
    ]
    print(f"  breakers not closed: {len(open_breakers)}")
    for bname in open_breakers[:10]:
        print(f"    {bname}")
    return 0


def _cmd_attacks(args) -> int:
    from .attacks import ATTACK_PROFILES
    from .obs.metrics import MetricsRegistry

    if args.profile is None:
        print("attack profiles:")
        for name in sorted(ATTACK_PROFILES):
            profile = ATTACK_PROFILES[name]
            kind = (
                "equivalence" if profile.expect_equivalence else "degradation"
            )
            strikes = (
                profile.site_strikes
                + profile.block_strikes
                + profile.provider_strikes
                + profile.overwhelming_strikes
            )
            print(f"  {name:<9} ({kind}): {strikes} strike(s) — "
                  f"{profile.site_strikes} site, "
                  f"{profile.block_strikes} block, "
                  f"{profile.provider_strikes} provider, "
                  f"{profile.overwhelming_strikes} overwhelming")
            print(f"            {profile.description}")
        print("('none' disables attacks)")
        return 0
    name = plane_kind("attacks").normalize(args.profile)
    if name is None:
        print("profile 'none': no attacks to drive")
        return 0
    world = _world(args)
    metrics = MetricsRegistry()
    plane = world.install_attacks(name, metrics=metrics)
    print(f"profile {name}: schedule at population {args.population}, "
          f"seed {args.seed}:")
    for event in plane.events:
        overwhelms = " OVERWHELMS" if event.overwhelms else ""
        print(f"  day {event.start_day:>3} +{event.duration_days}d "
              f"{event.kind.value:<13} {event.target_kind.value:<14} "
              f"{event.target} @ {event.magnitude_gbps:g} Gbps{overwhelms}")
    world.engine.run_days(args.days)
    print(f"drove {args.days} day(s); surge now "
          f"x{plane.traffic_surge:.2f}")
    for key in sorted(plane.tallies):
        print(f"  {key}: {plane.tallies[key]}")
    return 0


def _cmd_scan(args) -> int:
    world = _world(args)
    world.engine.run_days(args.warmup)
    study = SixWeekStudy(world, StudyConfig(warmup_days=0, study_days=1))
    runtime = study.begin()
    study.collect_day(runtime)
    if len(runtime.harvest) == 0:
        print("no nameservers harvested; increase --population")
        return 1
    study.scan_day(runtime)
    report = runtime.report.cloudflare_weekly[0]
    print(f"retrieved={report.retrieved} ip-filtered={report.dropped_ip_filter} "
          f"a-filtered={report.dropped_a_filter} hidden={report.hidden_count} "
          f"verified={report.verified_count}")
    for record in report.hidden:
        verdict = "EXPOSED" if record.verified_origin else record.reason
        print(f"  {record.www} -> {record.address} [{verdict}]")
    return 0


def _cmd_attack(args) -> int:
    world = _world(args)
    cloudflare = world.provider("cloudflare")
    incapsula = world.provider("incapsula")
    matcher = ProviderMatcher(world.specs, world.routeviews)
    victim = next(
        s for s in world.population
        if s.provider is None and s.alive and not s.multicdn
        and not s.dynamic_meta and not s.firewall_inclined
    )
    victim.join(cloudflare, ReroutingMethod.NS_BASED)
    simulator = DdosSimulator(world.providers, matcher)
    public = world.make_resolver().resolve(victim.www)
    frontal = simulator.attack(public.addresses[0], attack_gbps=args.gbps)
    print(f"frontal flood at edge: path={frontal.path} "
          f"availability={frontal.origin_availability:.0%}")
    victim.switch(incapsula, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
    attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
    discovery = attacker.probe_nameservers(
        victim.www, cloudflare.customer_fleet.all_addresses()[:10]
    )
    if not discovery.succeeded:
        print("discovery failed")
        return 1
    bypass = simulator.attack(discovery.candidate_origins[0], attack_gbps=args.gbps)
    print(f"bypass flood at residual origin: path={bypass.path} "
          f"availability={bypass.origin_availability:.0%} "
          f"-> {'site down' if bypass.attack_succeeded else 'survived'}")
    return 0


def _cmd_purge_probe(args) -> int:
    probe = PurgeProbe(_world(args))
    trials = probe.run_trials(count=args.trials, plan=PlanTier(args.plan))
    for trial in trials:
        purged = (
            f"purged in week {trial.purged_in_week}"
            if trial.purged_in_week is not None
            else "never purged within the probe horizon"
        )
        print(f"trial {trial.trial} ({trial.plan}): answered weeks "
              f"{trial.answered_weeks}, {purged}")
    return 0
