"""The ``repro chaos`` harness: same seed, one faulty run, diff the rest.

Builds two identical worlds from one seed, runs the E1 (daily
collection) and E8 (residual scan + filter pipeline) workloads on both
— one fault-free, one under a named fault profile installed after
warm-up — and diffs the measured artifacts field by field.

For profiles that stay inside the retry budget
(``expect_equivalence``), any divergence is a correctness bug in the
retry/fault machinery and the run fails.  For budget-exceeding
profiles the run fails only if the harness *didn't* degrade gracefully:
an exception escaped, or nothing was marked unmeasured even though
faults clearly bit.

The payload is what ``repro chaos`` serialises to
``CHAOS_<profile>.json``.  Everything here is deterministic — no wall
clock, no ambient randomness — so a chaos report is reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from ..core.study import SixWeekStudy, StudyConfig
from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..scenario import Scenario
from ..world import SimulatedInternet, WorldConfig
from .profiles import PROFILES

__all__ = ["run_chaos", "diff_artifacts"]

#: Divergences listed in the payload before truncation.
_MAX_DIVERGENCES = 25

#: Extra engine days driven after the planes install when an attack
#: campaign rides along, so the first strikes land (and their emergency
#: waves fire) before the workloads measure — mid-campaign, never
#: pre-campaign.  Both worlds drive the identical extra days.
_ATTACK_SOAK_DAYS = 9


def diff_artifacts(
    baseline: Dict[str, object], chaotic: Dict[str, object]
) -> List[str]:
    """Dotted paths where two artifact trees differ (sorted, truncated)."""
    paths: List[str] = []
    _diff_into(baseline, chaotic, "", paths)
    paths.sort()
    if len(paths) > _MAX_DIVERGENCES:
        extra = len(paths) - _MAX_DIVERGENCES
        paths = paths[:_MAX_DIVERGENCES] + [f"... and {extra} more"]
    return paths


def _diff_into(a: object, b: object, prefix: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                out.append(f"{path} (only in faulty run)")
            elif key not in b:
                out.append(f"{path} (only in baseline)")
            else:
                _diff_into(a[key], b[key], path, out)
        return
    if a != b:
        out.append(f"{prefix}: {a!r} != {b!r}")


def _collection_artifact(snapshot) -> Dict[str, object]:
    return {
        str(domain.www): {
            "a": sorted(str(ip) for ip in domain.a_records),
            "cnames": [str(c) for c in domain.cnames],
            "ns": sorted(str(t) for t in domain.ns_targets),
            "rcode": str(domain.rcode),
            "measured": domain.measured,
        }
        for domain in snapshot
    }


def _pipeline_artifact(report) -> Dict[str, object]:
    return {
        "retrieved": report.retrieved,
        "dropped_ip_filter": report.dropped_ip_filter,
        "dropped_a_filter": report.dropped_a_filter,
        "hidden": sorted(
            (record.www, str(record.address)) for record in report.hidden
        ),
        "verified": sorted(report.verified_websites()),
    }


def _run_workloads(
    population: int,
    seed: int,
    warmup_days: int,
    scenario: Scenario,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One world, E1 + E8, returning (artifacts, observability).

    The baseline and the faulty world share the scenario's traffic and
    attack planes, so the diff keeps isolating the fault profile's
    effect: under load and under attack, an equivalence profile must
    still produce byte-identical artifacts.  The install order is
    chaos's own, not :meth:`Scenario.install`'s: traffic, attacks (then
    a few soak days, so the workloads measure mid-campaign), and faults
    last, wired to the workloads' metrics registry.  The workloads are
    the study's own first day: one collection and one weekly scan.
    """
    world = SimulatedInternet(
        WorldConfig(population_size=population, seed=seed)
    )
    world.engine.run_days(warmup_days)
    metrics = MetricsRegistry()
    if scenario.traffic is not None:
        world.install_traffic(scenario.traffic)
    if scenario.attacks is not None:
        world.install_attacks(scenario.attacks)
        world.engine.run_days(_ATTACK_SOAK_DAYS)
    if scenario.fault is not None:
        world.install_faults(scenario.fault, metrics)

    study = SixWeekStudy(
        world, StudyConfig(warmup_days=0, study_days=1), metrics=metrics
    )
    runtime = study.begin()
    study.collect_day(runtime)
    scan = study.scan_day(runtime)
    report = runtime.report
    snapshot = report.days[0]

    e8: Dict[str, object] = {
        "harvested_nameservers": runtime.harvest.state_dict(),
        "nameserver_addresses": sorted(
            str(ip) for ip in scan.nameserver_addresses
        ),
    }
    if report.cloudflare_weekly:
        e8["cloudflare_retrieved"] = sorted(
            (record.www, sorted(str(ip) for ip in record.addresses))
            for record in scan.cloudflare_retrieved
        )
        e8["cloudflare"] = _pipeline_artifact(report.cloudflare_weekly[0])
    if report.incapsula_weekly:
        e8["incapsula"] = _pipeline_artifact(report.incapsula_weekly[0])
    artifacts = {"e1": _collection_artifact(snapshot), "e8": e8}

    observability = {
        "counters": metrics.snapshot(),
        "unmeasured_sites": snapshot.unmeasured_count,
        "quarantined_nameservers": [
            address
            for address, _, _ in runtime.collection_resolver.quarantine.snapshot()
        ],
    }
    return artifacts, observability


def run_chaos(
    scenario: Scenario,
    population: int = 400,
    seed: int = 2018,
    warmup_days: int = 21,
) -> Dict[str, object]:
    """Run the chaos comparison and return the report payload.

    The faulty world runs ``scenario``; the baseline runs it with the
    fault plane off.  ``passed`` is False when an equivalence profile
    diverged, or when a budget-exceeding profile failed to degrade
    explicitly (faults were injected, results diverged, yet nothing was
    marked unmeasured or quarantined and no query was given up on).  The
    scenario's traffic and attack planes put *both* worlds under the
    same background load and attack campaign, proving the fault check
    composes with the other planes.
    """
    if scenario.fault is None:
        raise ConfigurationError("chaos needs a scenario with a fault profile")
    fault_profile = PROFILES[scenario.fault]
    baseline_artifacts, _ = _run_workloads(
        population, seed, warmup_days, replace(scenario, fault=None)
    )
    chaotic_artifacts, observability = _run_workloads(
        population, seed, warmup_days, scenario
    )
    divergences = diff_artifacts(baseline_artifacts, chaotic_artifacts)
    identical = not divergences

    counters = observability["counters"]
    faults_injected = sum(
        count
        for name, count in counters.items()
        if name.startswith("faults.")
        and not name.endswith(("latency_ms", "latency_injections", "suppressed"))
    )
    degraded_explicitly = (
        observability["unmeasured_sites"] > 0
        or bool(observability["quarantined_nameservers"])
        or counters.get("resolver.gave_up", 0) > 0
        or counters.get("http.unanswered", 0) > 0
        or counters.get("client.unanswered", 0) > 0
    )
    if fault_profile.expect_equivalence:
        passed = identical
    else:
        passed = identical or degraded_explicitly or faults_injected == 0

    return {
        "profile": fault_profile.name,
        "description": fault_profile.description,
        "expect_equivalence": fault_profile.expect_equivalence,
        "population": population,
        "seed": seed,
        "warmup_days": warmup_days,
        "traffic": scenario.traffic,
        "attacks": scenario.attacks,
        "identical": identical,
        "divergences": divergences,
        "faults_injected": faults_injected,
        "retries": {
            "resolver": counters.get("resolver.retries", 0),
            "client": counters.get("client.retries", 0),
            "http": counters.get("http.retries", 0),
        },
        "unmeasured_sites": observability["unmeasured_sites"],
        "quarantined_nameservers": observability["quarantined_nameservers"],
        "counters": counters,
        "passed": passed,
    }
