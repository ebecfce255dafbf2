"""The ``repro bench`` harness: E1/E8 workloads with query-plane counters.

Runs the two hot workloads every experiment in the paper funnels
through — the study's own first day,
:meth:`~repro.core.study.SixWeekStudy.collect_day` then
:meth:`~repro.core.study.SixWeekStudy.scan_day` — against a fully wired
world, with a shared :class:`~repro.obs.metrics.MetricsRegistry`
threaded through every resolver, client and scanner:

* **E1 — daily collection** (§IV-B-1): one cache-purged A/CNAME/NS
  collection pass over the whole population, batched through
  :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many`.
* **E8 — residual scan** (§V / Fig. 8): nameserver harvest, the
  Cloudflare direct-query sweep, the Incapsula CNAME tracker, and the
  filter pipeline — plus a *batched vs. naive* resolution comparison
  over the scan's recursive-resolution names, proving the zone-cut
  memo's query saving with the counters themselves.

The result dict is what ``repro bench`` serialises to
``BENCH_<label>.json``: counter totals, workload shapes, and wall time,
so the repository's perf trajectory has real data points.  It also
records the host it ran on — ``cpus`` (the CPUs the process may use)
and ``python`` (the interpreter version) — because a wall time means
little without them.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List, Optional, Tuple

from ..core.study import SixWeekStudy, StudyConfig
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..obs.metrics import MetricsRegistry
from ..world.internet import SimulatedInternet

__all__ = ["run_bench", "compare_query_paths"]


def _wall_now() -> float:
    """Wall-clock seconds (monotonic).

    The single sanctioned wall-clock read in the library: the bench
    harness reports how long workloads take on real hardware.  The value
    is *reported only* — nothing in the simulation consumes it, so
    determinism is unaffected (suppressed REP002).
    """
    return time.perf_counter()  # repro: allow[REP002] -- reported only; nothing in the simulation consumes the value


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def compare_query_paths(
    world: SimulatedInternet,
    pairs: List[Tuple[DomainName, RecordType]],
) -> Dict[str, Dict[str, float]]:
    """Resolve ``pairs`` batched and naively; report queries per name.

    *Batched* uses one resolver and one
    :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many` call, so
    the batch shares the TTL cache and the per-batch zone-cut memo.
    *Naive* resolves each name with no shared state (cache purged
    between names) — the one-resolver-per-lookup pattern the hot callers
    used to approximate, re-walking root/TLD for every single name.
    """
    outcomes: Dict[str, Dict[str, float]] = {}

    batched_resolver = world.make_resolver()
    batched_results = batched_resolver.resolve_many(pairs)
    outcomes["batched"] = _query_cost(
        batched_resolver.queries_sent, batched_results
    )

    naive_resolver = world.make_resolver()
    naive_results = []
    for name, rtype in pairs:
        naive_resolver.purge_cache()
        naive_results.append(naive_resolver.resolve(name, rtype))
    outcomes["naive"] = _query_cost(naive_resolver.queries_sent, naive_results)
    return outcomes


def _query_cost(queries_sent: int, results) -> Dict[str, float]:
    resolved = sum(1 for result in results if result.ok)
    return {
        "names": len(results),
        "resolved": resolved,
        "queries_sent": queries_sent,
        "queries_per_resolved": queries_sent / max(1, resolved),
    }


def run_bench(  # repro: allow[REP040] -- timing real hardware is the bench's purpose; wall times are reported, never fed back into the simulation
    world: SimulatedInternet,
    warmup_days: int = 7,
    label: Optional[str] = None,
    traffic: Optional[str] = None,
    attacks: Optional[str] = None,
) -> Dict[str, object]:
    """Run the E1/E8 workloads and return the BENCH payload.

    ``traffic`` names a background-load profile to install before the
    warm-up; the E1/E8 workloads then run against a fleet under load,
    and the payload grows a ``traffic`` section with the plane's tallies
    and defense counters.  ``attacks`` names a DDoS campaign to schedule
    the same way; the payload then grows an ``attacks`` section with the
    schedule and wave counters.  With both ``None`` (the default) the
    payload — E1 counters included — is byte-identical to a pre-plane
    bench, which is exactly what the CI equivalence gate compares.
    """
    bench_label = label or f"p{len(world.population)}"
    started = _wall_now()
    metrics = MetricsRegistry()

    traffic_plane = None
    traffic_metrics = MetricsRegistry()
    if traffic is not None:
        traffic_plane = world.install_traffic(traffic, metrics=traffic_metrics)
    attack_plane = None
    attack_metrics = MetricsRegistry()
    if attacks is not None:
        attack_plane = world.install_attacks(attacks, metrics=attack_metrics)

    with metrics.timer("bench.warmup", world.clock):
        world.engine.run_days(warmup_days)

    study = SixWeekStudy(
        world, StudyConfig(warmup_days=0, study_days=1), metrics=metrics
    )
    runtime = study.begin()

    # -- E1: daily collection ------------------------------------------
    e1_started = _wall_now()
    study.collect_day(runtime)
    snapshot = runtime.report.snapshots[0]
    e1_counters = metrics.snapshot()
    e1 = {
        "hostnames": len(runtime.hostnames),
        "resolved": sum(1 for domain in snapshot if domain.resolved),
        "counters": e1_counters,
        "wall_seconds": _wall_now() - e1_started,
    }

    # -- E8: residual scan ---------------------------------------------
    e8_started = _wall_now()
    scan = study.scan_day(runtime)
    report = runtime.report
    incap_canonicals: List[DomainName] = (
        list(runtime.incap_scanner.known_canonicals)
        if runtime.incap_scanner is not None
        else []
    )

    # The scan's recursive-resolution name set: harvested nameserver
    # hostnames plus collected canonicals — sibling-heavy, exactly where
    # the zone-cut memo pays off.  Both paths resolve the same names.
    comparison_pairs = [
        (hostname, RecordType.A) for hostname in runtime.harvest.hostnames
    ] + [(canonical, RecordType.A) for canonical in incap_canonicals]
    comparison = (
        compare_query_paths(world, comparison_pairs)
        if comparison_pairs
        else {}
    )

    # E8's counters are what the sweep added to the shared registry.
    totals = metrics.snapshot()
    e8 = {
        "harvested_nameservers": len(runtime.harvest),
        "cloudflare_retrieved": len(scan.cloudflare_retrieved),
        "cloudflare_hidden": sum(
            weekly.hidden_count for weekly in report.cloudflare_weekly
        ),
        "incapsula_canonicals": len(incap_canonicals),
        "incapsula_retrieved": len(scan.incapsula_retrieved),
        "incapsula_hidden": sum(
            weekly.hidden_count for weekly in report.incapsula_weekly
        ),
        "counters": {
            name: count - e1_counters.get(name, 0)
            for name, count in totals.items()
            if count != e1_counters.get(name, 0)
        },
        "query_path_comparison": comparison,
        "wall_seconds": _wall_now() - e8_started,
    }

    payload = {
        "label": bench_label,
        "population": len(world.population),
        "seed": world.config.seed,
        "warmup_days": warmup_days,
        "sim_day": world.clock.day,
        "warmup_sim_seconds": metrics.value("bench.warmup.sim_seconds"),
        "e1_collection": e1,
        "e8_residual_scan": e8,
        "wall_seconds_total": _wall_now() - started,
        "cpus": _available_cpus(),
        "python": platform.python_version(),
    }
    if traffic_plane is not None:
        payload["traffic"] = {
            "profile": traffic,
            "tier": traffic_plane.tier,
            "tallies": {
                name: traffic_plane.tallies[name]
                for name in sorted(traffic_plane.tallies)
            },
            "defense_counters": traffic_metrics.snapshot(),
        }
    if attack_plane is not None:
        payload["attacks"] = {
            "profile": attacks,
            "events": [event.as_dict() for event in attack_plane.events],
            "surge": attack_plane.traffic_surge,
            "tallies": {
                name: attack_plane.tallies[name]
                for name in sorted(attack_plane.tallies)
            },
            "flood_counters": attack_metrics.snapshot(),
        }
    return payload
