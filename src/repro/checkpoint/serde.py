"""Serialize/restore the study runtime for checkpoint snapshots.

The snapshot carries the *measurement layer's* mutable state only.  The
world itself is never serialized: world dynamics draw exclusively from
label-forked RNG streams and are measurement-independent, so a resumed
process rebuilds the world from (seed, population) and replays
``day_index`` engine days to land on the identical state — then
overlays the measurement state restored here.  The runner verifies the
replayed clock position afterwards; drift means the two processes did
not share a trajectory and the resume is refused.

A checkpoint barrier's snapshot is a *delta*: the report's append-only
series (day tables, skipped scan weeks, weekly pipeline reports)
carry only the entries gained since the previous barrier, tagged with
the base position they extend.  Everything else — collection
resolver, verifier, harvest, exposure, scanners,
pipelines, clients, planes — is small and rewritten whole.  So a
barrier costs one study day, not the study so far, and a resume folds
the chain ``0..k`` in order.  A shard worker ships the same delta to
its coordinator at every barrier.  Without a base (barrier 0, the first
barrier after a resume's seek, a round trip in a test) the same
converters carry the whole report.

Each day table is written as a copy of its integer columns plus its
name and provider lists (:func:`_day_to_dict`).  Shards merge a day by
listing their parts in one entry; decoding concatenates the parts.

Everything here round-trips through JSON, with insertion order
preserved wherever order is behaviourally load-bearing (day rows,
harvested nameservers, Incapsula canonicals).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.collector import COLUMNS, DayTable
from ..core.pipeline import HiddenRecord, PipelineReport
from ..core.study import SixWeekStudy, StudyConfig, StudyRuntime
from ..dns.name import DomainName
from ..errors import CheckpointCorruptError
from ..net.ipaddr import IPv4Address

__all__ = [
    "SERDE_REGISTRY",
    "config_to_dict",
    "report_partial_to_dict",
    "report_position",
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
    "DayTable",
    "DnsClient",
    # Carried through its resolver, the runtime's collection_resolver.
    "DnsRecordCollector",
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



def _day_to_dict(table: DayTable) -> Dict[str, object]:
    """One day table as one part: a copy of its columns, plus ``span``,
    the length of the hostname list its sites index.  Shards merge a day
    by listing their parts in shard order; an entry decodes to their
    concatenation, each part's sites shifted past the spans before it.
    """
    part: Dict[str, object] = {name: list(getattr(table, name)) for name in COLUMNS}
    part["span"] = len(table.hostnames)
    part["names"] = [str(name) for name in table.names]
    part["providers"] = list(table.providers)
    return {"day": table.day, "parts": [part]}


def _day_from_dict(payload: Dict[str, object], hostnames: Sequence[str]) -> DayTable:
    table = DayTable(int(payload["day"]), hostnames)
    span = 0
    for part in payload["parts"]:
        # What each column's values index grew by in the parts before.
        names, cnames, ns = len(table.names), len(table.cnames), len(table.ns)
        shift = {"site": span, "a_end": len(table.addresses), "cnames": names,
                 "ns": names, "cname_end": cnames, "ns_end": ns}
        table.providers.extend(p for p in part["providers"] if p not in table.providers)
        providers = [table.providers.index(p) for p in part["providers"]]
        for name in COLUMNS:
            values = part[name]
            if name == "provider":
                values = [providers[code] for code in values]
            elif shift.get(name):
                values = [value + shift[name] for value in values]
            getattr(table, name).extend(values)
        table.names.extend(DomainName(text) for text in part["names"])
        span += int(part["span"])
    if span != len(hostnames):
        raise CheckpointCorruptError(
            f"day {table.day}'s parts span {span} hostnames, but the "
            f"restored runtime measures {len(hostnames)}"
        )
    return table


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


def _pipeline_from_dict(payload: Dict[str, object], _hostnames: object) -> PipelineReport:
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



#: The report series the daily loop only ever appends to, each with its
#: entry encoder and decoder; a decoder also takes the hostname list of
#: the runtime it restores into, which the day tables index.  A barrier
#: delta carries just the entries past its base position; everything
#: else is rewritten whole.
_SERIES = (
    ("days", _day_to_dict, _day_from_dict),
    ("skipped_scan_weeks", int, lambda entry, _hostnames: int(entry)),
    ("cloudflare_weekly", _pipeline_to_dict, _pipeline_from_dict),
    ("incapsula_weekly", _pipeline_to_dict, _pipeline_from_dict),
)


def report_position(report) -> Dict[str, int]:
    """How long each append-only series of ``report`` is: a delta's base."""
    return {name: len(getattr(report, name)) for name, _, _ in _SERIES}


def report_partial_to_dict(
    report, since: Optional[Dict[str, int]] = None
) -> Dict[str, object]:
    """The report fields the daily loop accumulates, as JSON primitives.

    This is the payload unit both planes exchange: the checkpoint
    snapshot embeds it per barrier, and a shard worker ships the same
    dict to the coordinator at every barrier.  Derived analyses
    (adoption, pauses, exposure summary, ground truth) are excluded —
    :meth:`SixWeekStudy.finalise` recomputes them from this state.

    With ``since`` (a :func:`report_position`) the append-only series
    carry only the entries gained past that position, and the payload
    records it as its base; without, they carry everything.
    ``partial_scan_weeks`` is rewritten whole either way: a week's count
    grows in place.
    """
    payload: Dict[str, object] = {"since": since}
    for name, encode, _ in _SERIES:
        start = since[name] if since is not None else 0
        payload[name] = [encode(entry) for entry in getattr(report, name)[start:]]
    payload["partial_scan_weeks"] = sorted(
        [week, count] for week, count in report.partial_scan_weeks.items()
    )
    return payload


def restore_report_partial(
    report, partial: Dict[str, object], hostnames: Sequence[str]
) -> None:
    """Overlay a :func:`report_partial_to_dict` payload onto a report.

    A payload without a base replaces the series.  One with a base
    appends at it, and refuses unless the report's series end exactly
    there: a delta applied out of order would silently repeat or drop
    study days.  ``hostnames`` is the restoring runtime's hostname
    list, which the day tables index.
    """
    since = partial["since"]
    for name, _, decode in _SERIES:
        entries = [decode(entry, hostnames) for entry in partial[name]]
        if since is None:
            setattr(report, name, entries)
            continue
        series = getattr(report, name)
        if len(series) != int(since[name]):
            raise CheckpointCorruptError(
                f"a barrier delta extends {name} from position "
                f"{since[name]}, but the restored report holds "
                f"{len(series)}; the snapshot chain has a gap or a repeat"
            )
        series.extend(entries)
    report.partial_scan_weeks = {
        int(week): int(count)
        for week, count in partial["partial_scan_weeks"]
    }


# -- runtime ---------------------------------------------------------------


def serialize_runtime(
    study: SixWeekStudy,
    runtime: StudyRuntime,
    since: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """The barrier snapshot: everything a resumed process must restore.

    Only fields the daily loop *mutates* are captured; everything the
    post-loop analyses derive (adoption, pauses, exposure summary,
    ground truth) is recomputed by :meth:`SixWeekStudy.finalise` on the
    restored state.  ``since`` makes the report a delta from that base
    (:func:`report_partial_to_dict`); the rest is always whole.
    """
    world = study.world
    return {
        "clock_now": world.clock.now,
        "day_index": runtime.day_index,
        "study_start_day": runtime.study_start_day,
        "report": report_partial_to_dict(runtime.report, since),
        "collection_resolver": runtime.collection_resolver.state_dict(),
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
    A delta snapshot's report series append at its base, so the
    earlier barriers' deltas must already be folded into the report.
    """
    if int(state["study_start_day"]) != runtime.study_start_day:
        raise CheckpointCorruptError(
            f"replayed world starts its study at day {runtime.study_start_day} "
            f"but the snapshot was taken in a study starting at day "
            f"{state['study_start_day']}"
        )
    runtime.day_index = int(state["day_index"])

    restore_report_partial(runtime.report, state["report"], runtime.hostnames)

    runtime.collection_resolver.restore_state(state["collection_resolver"])
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
