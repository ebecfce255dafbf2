"""Byte-identical aggregation of per-shard campaign state.

Every value a shard worker ships home is either *positional* (per-day
series, weekly pipeline reports) or *set-like* (harvests, quarantine
rosters, counters).  The merge rules follow directly:

* positional values merge **in shard order** — shard slices are
  contiguous in hostname order, so concatenating shard 0's domains
  before shard 1's reproduces the monolithic collection order exactly;
* set-like values merge in **canonical (sorted) order**, which is
  independent of how the observations were partitioned;
* scalar tallies (pipeline drop counters, metrics)
  are commutative sums.

The workers ship in two kinds of message.  At every barrier each one
answers with its report delta since the previous barrier
(:func:`barrier_delta`, the checkpoint plane's
:func:`~repro.checkpoint.serde.report_partial_to_dict`); the
coordinator merges the shards' deltas and appends them to its own
report (:func:`fold_barrier`).  After the last barrier each worker
ships the whole-state parts (:func:`worker_payload`), which
:func:`merge_payloads` folds and :func:`overlay_merged` seats in the
coordinator's runtime for :meth:`SixWeekStudy.finalise` — the analyses
then run on state byte-identical to a single-process campaign's.

Every structural disagreement between shards (mismatched topologies,
missing shards, diverging lockstep positions or day bases) raises
:class:`~repro.errors.ShardError`: two workers that disagree cannot have
replayed the same world.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..checkpoint.serde import report_partial_to_dict, restore_report_partial
from ..core.study import SixWeekStudy, StudyRuntime
from ..errors import CheckpointCorruptError, ShardError
from ..faults.quarantine import NameserverQuarantine
from ..markers import pure_function

__all__ = [
    "barrier_delta",
    "merge_barrier_deltas",
    "fold_barrier",
    "worker_payload",
    "merge_payloads",
    "overlay_merged",
]

#: Bump on any incompatible change to the worker payload layout.
PAYLOAD_VERSION = 6

def _shard(runtime: StudyRuntime) -> Dict[str, int]:
    return {"index": runtime.shard_index, "count": runtime.shard_count}


def barrier_delta(
    runtime: StudyRuntime, barrier: int, report: Dict[str, object]
) -> Dict[str, object]:
    """One shard's answer to barrier ``barrier``.

    ``report`` is the worker's report delta since its previous barrier
    (:func:`~repro.checkpoint.serde.report_partial_to_dict`) — the very
    dict its checkpoint snapshot embeds when it commits this barrier.
    """
    return {
        "payload_version": PAYLOAD_VERSION,
        "shard": _shard(runtime),
        "barrier": int(barrier),
        "report": report,
    }


@pure_function
def merge_barrier_deltas(deltas: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold the shards' answers to one barrier into one report delta.

    ``deltas`` may arrive in any order; they merge in shard-index order.
    """
    ordered = _in_shard_order(deltas)
    _require_agreement(ordered, ("barrier",))
    return _merge_report_partials([delta["report"] for delta in ordered])


def fold_barrier(runtime: StudyRuntime, deltas: Sequence[Dict[str, object]]) -> None:
    """Append the shards' answers to one barrier to the coordinator's report."""
    merged = merge_barrier_deltas(deltas)
    try:
        restore_report_partial(runtime.report, merged, runtime.hostnames)
    except CheckpointCorruptError as exc:
        raise ShardError(
            f"the coordinator's report cannot take the shards' barrier "
            f"delta: {exc}"
        ) from exc


def worker_payload(
    study: SixWeekStudy,
    runtime: StudyRuntime,
    since: Optional[Dict[str, int]],
) -> Dict[str, object]:
    """The whole-state parts one finished shard contributes.

    Shipped by a worker (over a pipe, or returned inline) after its last
    barrier; JSON-compatible so transports and tests can canonicalise
    it byte-stably.  Its report is the delta since ``since``, the last
    barrier's position: every study day already went home at its
    barrier, so the day series are empty and only the whole-state
    ``partial_scan_weeks`` rides along.
    """
    report = runtime.report
    resolver = runtime.collection_resolver
    return {
        "payload_version": PAYLOAD_VERSION,
        "shard": _shard(runtime),
        "population": report.population_size,
        "study_start_day": runtime.study_start_day,
        "day_index": runtime.day_index,
        "clock_now": study.world.clock.now,
        "report": report_partial_to_dict(report, since),
        "harvest": runtime.harvest.state_dict(),
        "exposure": runtime.exposure.state_dict(),
        "scan_pop_totals": sorted(
            [pop, count] for pop, count in runtime.scan_pop_totals.items()
        ),
        "quarantine": [list(entry) for entry in resolver.quarantine.snapshot()],
        "metrics": resolver.metrics.snapshot(),
        # World-side state: every replica drives the planes identically,
        # so this merges by agreement (see merge_payloads), never by
        # summation — summing replicated tallies would inflate the
        # background load by the shard count.
        "planes": {
            name: plane.drive_state()
            for name, plane in study.world.fabric.planes.items()
        },
    }


@pure_function
def merge_payloads(payloads: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-shard payloads into one monolithic-shaped payload.

    ``payloads`` may arrive in any order; they are merged in shard-index
    order, so the result is independent of worker completion order.  The
    merged payload has ``shard = {index: 0, count: 1}`` — it *is* the
    state a single worker measuring the whole population would have
    shipped.
    """
    ordered = _in_shard_order(payloads)
    _require_agreement(
        ordered, ("population", "study_start_day", "day_index", "clock_now")
    )
    # The planes are world-side state every replica drives in lockstep;
    # their drive states join the must-agree family.
    planes = ordered[0]["planes"]
    for payload in ordered[1:]:
        for name in sorted(set(planes) | set(payload["planes"])):
            if payload["planes"].get(name) != planes.get(name):
                raise ShardError(
                    f"workers disagree on the {name} plane's state; they "
                    "cannot have driven the same world in lockstep"
                )

    merged_report = _merge_report_partials(
        [payload["report"] for payload in ordered]
    )

    harvest: set = set()
    for payload in ordered:
        harvest.update(payload["harvest"])

    exposure = _merge_exposure([payload["exposure"] for payload in ordered])

    pop_totals: Dict[str, int] = {}
    for payload in ordered:
        for pop, count in payload["scan_pop_totals"]:
            pop_totals[pop] = pop_totals.get(pop, 0) + int(count)

    metrics: Dict[str, int] = {}
    for payload in ordered:
        for name, value in payload["metrics"].items():
            metrics[name] = metrics.get(name, 0) + int(value)

    quarantine = NameserverQuarantine.merge_snapshots(
        payload["quarantine"] for payload in ordered
    )

    first = ordered[0]
    return {
        "payload_version": PAYLOAD_VERSION,
        "shard": {"index": 0, "count": 1},
        "population": first["population"],
        "study_start_day": first["study_start_day"],
        "day_index": first["day_index"],
        "clock_now": first["clock_now"],
        "report": merged_report,
        "harvest": sorted(harvest),
        "exposure": exposure,
        "scan_pop_totals": sorted([pop, pop_totals[pop]] for pop in pop_totals),
        "quarantine": [list(entry) for entry in quarantine],
        "metrics": {name: metrics[name] for name in sorted(metrics)},
        "planes": planes,
    }


def overlay_merged(
    study: SixWeekStudy, runtime: StudyRuntime, merged: Dict[str, object]
) -> None:
    """Seat the merged campaign state in a coordinator runtime.

    ``runtime`` must come from an *unsharded* :meth:`SixWeekStudy.begin`
    on a world built from the same ``(seed, population)`` and stepped
    ``day_index`` engine days, with every barrier's delta folded into
    its report (:func:`fold_barrier`): the payload's report delta
    extends exactly that position.  After the overlay,
    :meth:`SixWeekStudy.finalise` produces the campaign report.
    """
    if runtime.shard_count != 1:
        raise ShardError(
            "merged state overlays onto an unsharded coordinator runtime, "
            f"not shard {runtime.shard_index} of {runtime.shard_count}"
        )
    if int(merged["study_start_day"]) != runtime.study_start_day:
        raise ShardError(
            f"coordinator world starts its study at day "
            f"{runtime.study_start_day} but the workers measured a study "
            f"starting at day {merged['study_start_day']}"
        )
    runtime.day_index = int(merged["day_index"])
    try:
        restore_report_partial(
            runtime.report, merged["report"], runtime.hostnames
        )
    except CheckpointCorruptError as exc:
        raise ShardError(
            f"the workers' final payload does not extend the coordinator's "
            f"folded report: {exc}"
        ) from exc
    runtime.harvest.restore_state(merged["harvest"])
    runtime.exposure.restore_state(merged["exposure"])
    runtime.scan_pop_totals = {
        pop: int(count) for pop, count in merged["scan_pop_totals"]
    }
    resolver = runtime.collection_resolver
    resolver.quarantine.restore(
        (address, int(at), int(due))
        for address, at, due in merged["quarantine"]
    )
    resolver.metrics.restore(merged["metrics"])
    saved_planes = merged["planes"]
    planes = study.world.fabric.planes
    mismatched = sorted(set(saved_planes) ^ set(planes))
    if mismatched:
        raise ShardError(
            f"workers and the coordinator disagree about whether a "
            f"{mismatched[0]} plane is installed"
        )
    for name, plane in planes.items():
        if plane.drive_state() != saved_planes[name]:
            raise ShardError(
                f"the coordinator's replayed {name} plane diverged from the "
                "workers'; the replicas cannot have driven the same world"
            )


# -- internals -------------------------------------------------------------


def _in_shard_order(
    payloads: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Check the payloads form one complete topology; sort them by shard."""
    if not payloads:
        raise ShardError("nothing to merge: no worker payloads")
    count = len(payloads)
    for payload in payloads:
        if payload.get("payload_version") != PAYLOAD_VERSION:
            raise ShardError(
                f"worker payload version {payload.get('payload_version')!r} "
                f"is not the supported version {PAYLOAD_VERSION}"
            )
        shard = payload["shard"]
        if int(shard["count"]) != count:
            raise ShardError(
                f"shard {shard['index']} believes the topology has "
                f"{shard['count']} shard(s); {count} payload(s) arrived"
            )
    ordered = sorted(payloads, key=lambda p: int(p["shard"]["index"]))
    indices = [int(p["shard"]["index"]) for p in ordered]
    if indices != list(range(count)):
        raise ShardError(
            f"payload shard indices {indices} do not cover 0..{count - 1} "
            "exactly once"
        )
    return ordered


def _require_agreement(
    ordered: Sequence[Dict[str, object]], keys: Sequence[str]
) -> None:
    """Refuse payloads that disagree on any lockstep position in ``keys``."""
    for key in keys:
        values = {int(p[key]) for p in ordered}
        if len(values) > 1:
            raise ShardError(
                f"workers disagree on {key}: {sorted(values)}; they cannot "
                "have replayed the same world in lockstep"
            )


def _merged_base(
    partials: Sequence[Dict[str, object]],
) -> Optional[Dict[str, int]]:
    """The base every shard's report delta extends, or None if all are whole."""
    bases = [p["since"] for p in partials]
    if all(base is None for base in bases):
        return None
    if any(base is None for base in bases):
        raise ShardError(
            "some workers shipped whole reports and others barrier deltas; "
            "they cannot have crossed the same barriers"
        )
    merged: Dict[str, int] = {}
    for name in bases[0]:
        values = {int(base[name]) for base in bases}
        if len(values) > 1:
            what = "day bases" if name == "days" else "bases"
            raise ShardError(
                f"workers' barrier deltas extend {name} from different "
                f"{what}: {sorted(values)}; the lockstep has skewed"
            )
        merged[name] = values.pop()
    return merged


@pure_function
def _merge_report_partials(
    partials: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Merge per-shard report deltas (shard order = hostname order)."""
    since = _merged_base(partials)
    lengths = {len(p["days"]) for p in partials}
    if len(lengths) > 1:
        raise ShardError(
            f"workers recorded different numbers of days: {sorted(lengths)}"
        )

    # Each shard's day is one or more column parts; the merged day lists
    # them in shard order, with no re-indexing.
    days: List[Dict[str, object]] = []
    for position, per_shard in enumerate(zip(*(p["days"] for p in partials))):
        clock_days = sorted({int(s["day"]) for s in per_shard})
        if len(clock_days) > 1:
            raise ShardError(
                f"day position {position} spans clock days {clock_days} "
                "across shards; collection fell out of lockstep"
            )
        parts = [part for s in per_shard for part in s["parts"]]
        days.append({"day": per_shard[0]["day"], "parts": parts})

    # Per-week throttled-hostname counts sum: each shard's slice of the
    # population is disjoint, so its throttled hostnames are too.
    partial_scans: Dict[int, int] = {}
    for p in partials:
        for week, count in p["partial_scan_weeks"]:
            week = int(week)
            partial_scans[week] = partial_scans.get(week, 0) + int(count)

    # The skip decision is a function of broadcast state (the merged
    # harvest) and world state, both identical across workers; diverging
    # skip lists mean the lockstep broke.
    skipped = [list(p["skipped_scan_weeks"]) for p in partials]
    if any(weeks != skipped[0] for weeks in skipped[1:]):
        raise ShardError(
            f"workers disagree on skipped scan weeks: {skipped}; the "
            "harvest broadcast cannot have reached every worker"
        )

    return {
        "since": since,
        "days": days,
        "skipped_scan_weeks": skipped[0],
        "partial_scan_weeks": sorted(
            [week, partial_scans[week]] for week in partial_scans
        ),
        "cloudflare_weekly": _merge_weekly(
            [p["cloudflare_weekly"] for p in partials]
        ),
        "incapsula_weekly": _merge_weekly(
            [p["incapsula_weekly"] for p in partials]
        ),
    }


@pure_function
def _merge_weekly(
    per_shard_weeks: Sequence[List[Dict[str, object]]],
) -> List[Dict[str, object]]:
    """Merge weekly pipeline reports: counts sum, hidden lists concat."""
    lengths = {len(weeks) for weeks in per_shard_weeks}
    if len(lengths) > 1:
        raise ShardError(
            f"workers ran different numbers of weekly sweeps: {sorted(lengths)}"
        )
    merged: List[Dict[str, object]] = []
    for position in range(len(per_shard_weeks[0])):
        reports = [weeks[position] for weeks in per_shard_weeks]
        identities = {(r["provider"], int(r["week"])) for r in reports}
        if len(identities) > 1:
            raise ShardError(
                f"weekly sweep position {position} mixes "
                f"{sorted(identities)} across shards"
            )
        merged.append(
            {
                "provider": reports[0]["provider"],
                "week": reports[0]["week"],
                "retrieved": sum(int(r["retrieved"]) for r in reports),
                "dropped_ip_filter": sum(
                    int(r["dropped_ip_filter"]) for r in reports
                ),
                "dropped_a_filter": sum(
                    int(r["dropped_a_filter"]) for r in reports
                ),
                "hidden": [entry for r in reports for entry in r["hidden"]],
            }
        )
    return merged


@pure_function
def _merge_exposure(
    per_shard_weeks: Sequence[List[List[str]]],
) -> List[List[str]]:
    """Merge exposure timelines: per-week sorted union of verified sets."""
    lengths = {len(weeks) for weeks in per_shard_weeks}
    if len(lengths) > 1:
        raise ShardError(
            f"workers recorded different numbers of exposure weeks: "
            f"{sorted(lengths)}"
        )
    return [
        sorted({site for weeks in per_shard_weeks for site in weeks[position]})
        for position in range(len(per_shard_weeks[0]))
    ]
