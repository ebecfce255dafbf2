"""Serialize/restore the study runtime for checkpoint snapshots.

The snapshot carries the *measurement layer's* mutable state only.  The
world itself is never serialized: world dynamics draw exclusively from
label-forked RNG streams and are measurement-independent, so a resumed
process rebuilds the world from (seed, population) and replays
``day_index`` engine days to land on the identical state — then
overlays the measurement state restored here.  The runner verifies the
replayed clock position afterwards; drift means the two processes did
not share a trajectory and the resume is refused.

Everything here round-trips through JSON, with insertion order
preserved wherever order is behaviourally load-bearing (snapshot
domain maps, harvested nameservers, Incapsula canonicals).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.collector import DailySnapshot, DomainSnapshot
from ..core.pipeline import HiddenRecord, PipelineReport
from ..core.status import DpsObservation
from ..core.study import SixWeekStudy, StudyConfig, StudyRuntime
from ..dns.message import Rcode
from ..dns.name import DomainName
from ..dps.portal import ReroutingMethod
from ..errors import CheckpointCorruptError
from ..net.ipaddr import IPv4Address

__all__ = [
    "SERDE_REGISTRY",
    "config_to_dict",
    "report_partial_to_dict",
    "restore_report_partial",
    "serialize_runtime",
    "restore_runtime",
]

#: Every class whose mutable state this module can carry across a
#: checkpoint barrier — either through the object's own
#: ``state_dict``/``restore_state`` pair or through an inline converter
#: below.  The REP063 shard-safety rule checks mutable classes reachable
#: from the study's shard entry points against this list: stateful
#: objects that live across ``run_day`` calls but are absent here would
#: silently lose state on resume.
SERDE_REGISTRY = frozenset({
    # Carried transitively: the traffic plane's state_dict embeds every
    # bucket level, breaker state, and the adaptive limiter's tier.
    "AdaptiveLimiter",
    # Carried via the attack plane's state_dict: the schedule (verified,
    # not trusted), attacked-address sets, surge, tallies and counters.
    "AttackPlane",
    "CircuitBreaker",
    "DailySnapshot",
    "DnsClient",
    "DnsRecordCollector",
    "DomainSnapshot",
    "DpsObservation",
    "ExposureTimeline",
    "FaultPlan",
    "FilterPipeline",
    "HiddenRecord",
    "HtmlVerifier",
    "HttpClient",
    "IncapsulaScanner",
    # Carried transitively: RecursiveResolver.state_dict embeds the
    # quarantine roster and the metrics counters.
    "MetricsRegistry",
    "NameserverHarvest",
    "NameserverQuarantine",
    "PipelineReport",
    "RecursiveResolver",
    "StudyConfig",
    "StudyReport",
    "StudyRuntime",
    "TokenBucket",
    "TrafficPlane",
})


def config_to_dict(config: StudyConfig) -> Dict[str, object]:
    """The study config as the manifest's JSON payload."""
    return {
        "warmup_days": config.warmup_days,
        "study_days": config.study_days,
        "scan_every_days": config.scan_every_days,
        "vantage_regions": list(config.vantage_regions),
        "multicdn_flip_threshold": config.multicdn_flip_threshold,
        "run_usage_dynamics": config.run_usage_dynamics,
        "run_residual_scans": config.run_residual_scans,
        "verifier_strictness": config.verifier_strictness,
    }


# -- per-type converters ---------------------------------------------------


def _domain_to_dict(snapshot: DomainSnapshot) -> Dict[str, object]:
    return {
        "day": snapshot.day,
        "www": str(snapshot.www),
        "a": [str(address) for address in snapshot.a_records],
        "cnames": [str(target) for target in snapshot.cnames],
        "ns": [str(target) for target in snapshot.ns_targets],
        "rcode": snapshot.rcode.value,
        "measured": snapshot.measured,
    }


def _domain_from_dict(payload: Dict[str, object]) -> DomainSnapshot:
    return DomainSnapshot(
        day=int(payload["day"]),
        www=DomainName(payload["www"]),
        a_records=tuple(IPv4Address(a) for a in payload["a"]),
        cnames=tuple(DomainName(c) for c in payload["cnames"]),
        ns_targets=tuple(DomainName(n) for n in payload["ns"]),
        rcode=Rcode(payload["rcode"]),
        measured=bool(payload["measured"]),
    )


def _daily_to_dict(snapshot: DailySnapshot) -> Dict[str, object]:
    # The domain map's insertion order is the collection order; keep it.
    return {
        "day": snapshot.day,
        "domains": [_domain_to_dict(d) for d in snapshot.domains.values()],
    }


def _daily_from_dict(payload: Dict[str, object]) -> DailySnapshot:
    daily = DailySnapshot(day=int(payload["day"]))
    for entry in payload["domains"]:
        domain = _domain_from_dict(entry)
        daily.domains[str(domain.www)] = domain
    return daily


def _observation_to_list(www: str, obs: DpsObservation) -> List[object]:
    return [
        www,
        obs.day,
        obs.status,
        obs.provider,
        obs.rerouting.value if obs.rerouting is not None else None,
    ]


def _observation_from_list(entry: List[object]) -> DpsObservation:
    www, day, status, provider, rerouting = entry
    return DpsObservation(
        www=www,
        day=int(day),
        status=status,
        provider=provider,
        rerouting=ReroutingMethod(rerouting) if rerouting is not None else None,
    )


def _pipeline_to_dict(report: PipelineReport) -> Dict[str, object]:
    return {
        "provider": report.provider,
        "week": report.week,
        "retrieved": report.retrieved,
        "dropped_ip_filter": report.dropped_ip_filter,
        "dropped_a_filter": report.dropped_a_filter,
        "hidden": [
            [r.www, r.provider, str(r.address), r.verified_origin, r.reason]
            for r in report.hidden
        ],
    }


def _pipeline_from_dict(payload: Dict[str, object]) -> PipelineReport:
    return PipelineReport(
        provider=payload["provider"],
        week=int(payload["week"]),
        retrieved=int(payload["retrieved"]),
        dropped_ip_filter=int(payload["dropped_ip_filter"]),
        dropped_a_filter=int(payload["dropped_a_filter"]),
        hidden=[
            HiddenRecord(www, provider, IPv4Address(address), bool(verified), reason)
            for www, provider, address, verified, reason in payload["hidden"]
        ],
    )


# -- report (daily-loop partial) -------------------------------------------


def report_partial_to_dict(report) -> Dict[str, object]:
    """The report fields the daily loop accumulates, as JSON primitives.

    This is the payload unit both planes exchange: the checkpoint
    snapshot embeds it per barrier, and a shard worker ships it to the
    coordinator at the end of its slice's campaign.  Derived analyses
    (adoption, pauses, exposure summary, ground truth) are excluded —
    :meth:`SixWeekStudy.finalise` recomputes them from this state.
    """
    return {
        "snapshots": [_daily_to_dict(s) for s in report.snapshots],
        "observations": [
            [_observation_to_list(www, obs) for www, obs in day.items()]
            for day in report.observations
        ],
        "unmeasured_daily_counts": list(report.unmeasured_daily_counts),
        "partial_days": list(report.partial_days),
        "skipped_scan_weeks": list(report.skipped_scan_weeks),
        "partial_scan_weeks": sorted(
            [week, count] for week, count in report.partial_scan_weeks.items()
        ),
        "cloudflare_weekly": [
            _pipeline_to_dict(w) for w in report.cloudflare_weekly
        ],
        "incapsula_weekly": [
            _pipeline_to_dict(w) for w in report.incapsula_weekly
        ],
    }


def restore_report_partial(report, partial: Dict[str, object]) -> None:
    """Overlay a :func:`report_partial_to_dict` payload onto a report."""
    report.snapshots = [_daily_from_dict(s) for s in partial["snapshots"]]
    report.observations = [
        {entry[0]: _observation_from_list(entry) for entry in day}
        for day in partial["observations"]
    ]
    report.unmeasured_daily_counts = [
        int(count) for count in partial["unmeasured_daily_counts"]
    ]
    report.partial_days = [int(day) for day in partial["partial_days"]]
    report.skipped_scan_weeks = [int(w) for w in partial["skipped_scan_weeks"]]
    report.partial_scan_weeks = {
        int(week): int(count)
        for week, count in partial["partial_scan_weeks"]
    }
    report.cloudflare_weekly = [
        _pipeline_from_dict(w) for w in partial["cloudflare_weekly"]
    ]
    report.incapsula_weekly = [
        _pipeline_from_dict(w) for w in partial["incapsula_weekly"]
    ]


# -- runtime ---------------------------------------------------------------


def serialize_runtime(study: SixWeekStudy, runtime: StudyRuntime) -> Dict[str, object]:
    """The barrier snapshot: everything a resumed process must restore.

    Only fields the daily loop *mutates* are captured; everything the
    post-loop analyses derive (adoption, pauses, exposure summary,
    ground truth) is recomputed by :meth:`SixWeekStudy.finalise` on the
    restored state.
    """
    world = study.world
    return {
        "clock_now": world.clock.now,
        "day_index": runtime.day_index,
        "study_start_day": runtime.study_start_day,
        "report": report_partial_to_dict(runtime.report),
        "collector": runtime.collector.state_dict(),
        "verifier": runtime.verifier.state_dict(),
        "harvest": runtime.harvest.state_dict(),
        "exposure": runtime.exposure.state_dict(),
        "incap_scanner": (
            runtime.incap_scanner.state_dict()
            if runtime.incap_scanner is not None
            else None
        ),
        "cf_pipeline": (
            runtime.cf_pipeline.state_dict()
            if runtime.cf_pipeline is not None
            else None
        ),
        "incap_pipeline": (
            runtime.incap_pipeline.state_dict()
            if runtime.incap_pipeline is not None
            else None
        ),
        "vantage_clients": [c.state_dict() for c in runtime.vantage_clients],
        "scan_pop_totals": sorted(
            [pop, count] for pop, count in runtime.scan_pop_totals.items()
        ),
        "planes": {
            name: plane.state_dict() for name, plane in world.fabric.planes.items()
        },
    }


def restore_runtime(
    study: SixWeekStudy, runtime: StudyRuntime, state: Dict[str, object]
) -> None:
    """Overlay a barrier snapshot onto a freshly begun runtime.

    ``runtime`` must come from :meth:`SixWeekStudy.begin` on a world
    rebuilt with the checkpoint's inputs and replayed to the snapshot's
    ``day_index`` — this function restores the measurement layer only.
    """
    if int(state["study_start_day"]) != runtime.study_start_day:
        raise CheckpointCorruptError(
            f"replayed world starts its study at day {runtime.study_start_day} "
            f"but the snapshot was taken in a study starting at day "
            f"{state['study_start_day']}"
        )
    runtime.day_index = int(state["day_index"])

    restore_report_partial(runtime.report, state["report"])

    runtime.collector.restore_state(state["collector"])
    runtime.verifier.restore_state(state["verifier"])
    runtime.harvest.restore_state(state["harvest"])
    runtime.exposure.restore_state(state["exposure"])
    _restore_optional(runtime.incap_scanner, state["incap_scanner"], "incap_scanner")
    _restore_optional(runtime.cf_pipeline, state["cf_pipeline"], "cf_pipeline")
    _restore_optional(runtime.incap_pipeline, state["incap_pipeline"], "incap_pipeline")
    clients = runtime.vantage_clients
    saved_clients = state["vantage_clients"]
    if len(clients) != len(saved_clients):
        raise CheckpointCorruptError(
            f"snapshot holds {len(saved_clients)} vantage clients, the "
            f"rebuilt runtime has {len(clients)}"
        )
    for client, saved in zip(clients, saved_clients):
        client.restore_state(saved)
    runtime.scan_pop_totals = {
        pop: int(count) for pop, count in state["scan_pop_totals"]
    }

    saved_planes = state["planes"]
    planes = study.world.fabric.planes
    mismatched = sorted(set(saved_planes) ^ set(planes))
    if mismatched:
        raise CheckpointCorruptError(
            f"snapshot and rebuilt world disagree about whether a "
            f"{mismatched[0]} plane is installed"
        )
    for name, plane in planes.items():
        plane.restore_state(saved_planes[name])


def _restore_optional(obj: Optional[object], saved: Optional[object], name: str) -> None:
    if (obj is None) != (saved is None):
        raise CheckpointCorruptError(
            f"snapshot and rebuilt runtime disagree about {name!r}; the "
            "resume was given a different residual-scan configuration"
        )
    if obj is not None:
        obj.restore_state(saved)
