"""Barrier snapshots are deltas: one study day's table each, folded on resume."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore, run_checkpointed_study
from repro.checkpoint.serde import (
    _day_from_dict,
    _day_to_dict,
    report_partial_to_dict,
    report_position,
    restore_report_partial,
)
from repro.core.collector import DayTable
from repro.core.status import DpsStatus
from repro.core.study import SixWeekStudy, StudyConfig
from repro.dns.message import Rcode
from repro.dns.name import DomainName
from repro.dps.portal import ReroutingMethod
from repro.errors import CheckpointCorruptError
from repro.net.ipaddr import IPv4Address
from repro.world import SimulatedInternet, WorldConfig

from .conftest import STUDY_DAYS, WARMUP_DAYS

#: The keys of one day part: its columns, its span and its two lists.
_PART_KEYS = sorted([
    "site", "rcode", "status", "provider", "rerouting", "a_end", "addresses",
    "cname_end", "cnames", "ns_end", "ns", "span", "names", "providers",
])


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Every committed snapshot of one uninterrupted six-day run."""
    directory = tmp_path_factory.mktemp("chain") / "ckpt"
    run_checkpointed_study(
        directory,
        population=120,
        seed=11,
        config=StudyConfig(warmup_days=WARMUP_DAYS, study_days=6),
    )
    store = CheckpointStore.open(directory)
    return [
        (directory / record["snapshot"], store.load_snapshot(record))
        for record in store.barriers()
    ]


def _study_runtime(days, on_barrier=None):
    """Run a p60 study of ``days`` days; ``on_barrier(report)`` at each barrier."""
    world = SimulatedInternet(WorldConfig(population_size=60, seed=5))
    study = SixWeekStudy(world, StudyConfig(warmup_days=2, study_days=days))
    runtime = study.begin()
    while True:
        if on_barrier is not None:
            on_barrier(runtime.report)
        if runtime.finished:
            return runtime
        study.run_day(runtime)


class TestDeltaSnapshots:
    def test_barrier_zero_is_whole_and_empty(self, chain):
        report = chain[0][1]["report"]
        assert report["since"] is None
        assert report["days"] == []

    def test_each_later_barrier_holds_one_study_day(self, chain):
        for barrier, (_, state) in enumerate(chain[1:], start=1):
            report = state["report"]
            assert len(report["days"]) == 1, barrier
            assert report["since"]["days"] == barrier - 1
            # One part: the day's columns, a row per site.
            (part,) = report["days"][0]["parts"]
            assert sorted(part) == _PART_KEYS
            assert part["span"] == 120
            for column in ("site", "rcode", "status", "provider", "rerouting",
                           "a_end", "cname_end", "ns_end"):
                assert len(part[column]) == 120, column
            assert len(set(part["names"])) == len(part["names"])
            assert all(isinstance(a, int) for a in part["addresses"])

    def test_snapshot_bytes_stay_flat(self, chain):
        sizes = [path.stat().st_size for path, _ in chain[1:]]
        assert len(sizes) == 6
        assert max(sizes) <= 1.1 * min(sizes), sizes


class TestReportPartial:
    def test_folded_deltas_equal_the_whole_report(self):
        deltas = []
        base = []

        def commit(report):
            deltas.append(report_partial_to_dict(report, base[-1] if base else None))
            base.append(report_position(report))

        report = _study_runtime(STUDY_DAYS, commit).report
        folded = _study_runtime(0)
        for delta in deltas:
            restore_report_partial(folded.report, delta, folded.hostnames)
        assert report_partial_to_dict(folded.report) == report_partial_to_dict(report)

    def test_delta_at_the_wrong_base_is_refused(self):
        report = _study_runtime(STUDY_DAYS).report
        since = report_position(report)
        since["days"] -= 1
        delta = report_partial_to_dict(report, since)
        target = _study_runtime(0)
        with pytest.raises(CheckpointCorruptError, match="gap or a repeat"):
            restore_report_partial(target.report, delta, target.hostnames)

    def test_no_base_replaces_the_series(self):
        report = _study_runtime(STUDY_DAYS).report
        whole = report_partial_to_dict(report)
        assert whole["since"] is None
        target = _study_runtime(STUDY_DAYS)
        restore_report_partial(target.report, whole, target.hostnames)
        restore_report_partial(target.report, whole, target.hostnames)
        assert report_partial_to_dict(target.report) == whole


_NAMES = [
    DomainName(text)
    for text in (
        "www.alpha.com",
        "www.beta.net",
        "alpha.com",
        "ns1.cloudflare.com",
        "ns2.cloudflare.com",
        "cdn.example.org",
        "edge.x.y.example.com",
    )
]

_VERDICTS = [
    (DpsStatus.NONE, None, None),
    (DpsStatus.UNMEASURED, None, None),
    (DpsStatus.ON, "cloudflare", ReroutingMethod.NS_BASED),
    (DpsStatus.ON, "akamai", ReroutingMethod.A_BASED),
    (DpsStatus.OFF, "incapsula", ReroutingMethod.CNAME_BASED),
]


@st.composite
def day_tables(draw):
    day = draw(st.integers(min_value=0, max_value=1000))
    hostnames = [str(www) for www in draw(st.lists(st.sampled_from(_NAMES), unique=True))]
    addresses = st.one_of(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    ).map(IPv4Address)
    # Rows in any order, any subset of the hostname list.
    sites = draw(st.permutations(range(len(hostnames))))
    rows = [
        (
            site,
            draw(st.sampled_from(list(Rcode))),
            draw(st.lists(addresses, max_size=3)),
            draw(st.lists(st.sampled_from(_NAMES), max_size=2)),
            draw(st.lists(st.sampled_from(_NAMES), max_size=3)),
        ) + draw(st.sampled_from(_VERDICTS))
        for site in sites[: draw(st.integers(0, len(sites)))]
    ]
    return DayTable.build(day, hostnames, rows)


def _rows(table, rows, shift):
    """``rows`` of ``table`` as build rows, their sites moved by ``shift``."""
    for row in rows:
        snapshot, observation = table.snapshot(row), table.observation(row)
        yield (
            table.site[row] + shift,
            snapshot.rcode,
            snapshot.a_records,
            snapshot.cnames,
            snapshot.ns_targets,
            observation.status,
            observation.provider,
            observation.rerouting,
        )


class TestDayCodec:
    @settings(max_examples=200, deadline=None)
    @given(table=day_tables())
    def test_round_trip_through_json_keeps_every_field_and_the_order(self, table):
        payload = json.loads(json.dumps(_day_to_dict(table)))
        decoded = _day_from_dict(payload, table.hostnames)
        assert decoded == table
        assert list(decoded.site) == list(table.site)

    def test_a_multi_part_entry_decodes_to_the_concatenation_of_its_parts(self):
        runtime = _study_runtime(2)
        collected = runtime.report.days[1]
        hostnames = runtime.hostnames
        halves = [(hostnames[:25], range(25), 0), (hostnames[25:], range(25, 60), -25)]
        parts = []
        for half, rows, shift in halves:
            piece = DayTable.build(collected.day, half, _rows(collected, rows, shift))
            parts.extend(_day_to_dict(piece)["parts"])
        assert len(parts) == 2
        decoded = _day_from_dict({"day": collected.day, "parts": parts}, hostnames)
        assert decoded == collected
        assert [decoded.www(row) for row in range(len(decoded))] == hostnames
