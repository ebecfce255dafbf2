"""Barrier snapshots are deltas: one tabled study day each, folded on resume."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore, run_checkpointed_study
from repro.checkpoint.serde import (
    _daily_from_dict,
    _daily_to_dict,
    report_partial_to_dict,
    report_position,
    restore_report_partial,
)
from repro.core.collector import DailySnapshot, DomainSnapshot
from repro.core.study import SixWeekStudy, StudyConfig
from repro.dns.message import Rcode
from repro.dns.name import DomainName
from repro.errors import CheckpointCorruptError
from repro.net.ipaddr import IPv4Address
from repro.world import SimulatedInternet, WorldConfig

from .conftest import STUDY_DAYS, WARMUP_DAYS


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


def _study_report(days, on_barrier=None):
    """Run a p60 study of ``days`` days; ``on_barrier(report)`` at each barrier."""
    world = SimulatedInternet(WorldConfig(population_size=60, seed=5))
    study = SixWeekStudy(world, StudyConfig(warmup_days=2, study_days=days))
    runtime = study.begin()
    while True:
        if on_barrier is not None:
            on_barrier(runtime.report)
        if runtime.finished:
            return runtime.report
        study.run_day(runtime)


class TestDeltaSnapshots:
    def test_barrier_zero_is_whole_and_empty(self, chain):
        report = chain[0][1]["report"]
        assert report["since"] is None
        assert report["snapshots"] == [] and report["observations"] == []

    def test_each_later_barrier_holds_one_study_day(self, chain):
        for barrier, (_, state) in enumerate(chain[1:], start=1):
            report = state["report"]
            assert len(report["snapshots"]) == 1, barrier
            assert len(report["observations"]) == 1, barrier
            assert len(report["unmeasured_daily_counts"]) == 1, barrier
            assert report["since"]["snapshots"] == barrier - 1
            # One tabled part: names and addresses once, a row per site.
            (part,) = report["snapshots"][0]["parts"]
            assert sorted(part) == ["addresses", "names", "rows"]
            assert len(part["rows"]) == 120
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

        report = _study_report(STUDY_DAYS, commit)
        folded = _study_report(0)
        for delta in deltas:
            restore_report_partial(folded, delta)
        assert report_partial_to_dict(folded) == report_partial_to_dict(report)

    def test_delta_at_the_wrong_base_is_refused(self):
        report = _study_report(STUDY_DAYS)
        since = report_position(report)
        since["snapshots"] -= 1
        delta = report_partial_to_dict(report, since)
        with pytest.raises(CheckpointCorruptError, match="gap or a repeat"):
            restore_report_partial(_study_report(0), delta)

    def test_no_base_replaces_the_series(self):
        report = _study_report(STUDY_DAYS)
        whole = report_partial_to_dict(report)
        assert whole["since"] is None
        target = _study_report(STUDY_DAYS)
        restore_report_partial(target, whole)
        restore_report_partial(target, whole)
        assert report_partial_to_dict(target) == whole


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


@st.composite
def daily_snapshots(draw):
    day = draw(st.integers(min_value=0, max_value=1000))
    daily = DailySnapshot(day=day)
    addresses = st.one_of(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    ).map(IPv4Address)
    for www in draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=6)):
        daily.domains[str(www)] = DomainSnapshot(
            # Collected domains carry the entry's day; the codec keeps a
            # differing one too.
            day=draw(st.sampled_from([day, day + 1])),
            www=www,
            a_records=tuple(draw(st.lists(addresses, max_size=3))),
            cnames=tuple(draw(st.lists(st.sampled_from(_NAMES), max_size=2))),
            ns_targets=tuple(draw(st.lists(st.sampled_from(_NAMES), max_size=3))),
            rcode=draw(st.sampled_from(list(Rcode))),
            measured=draw(st.booleans()),
        )
    return daily


class TestDayCodec:
    @settings(max_examples=200, deadline=None)
    @given(daily=daily_snapshots())
    def test_round_trip_through_json_keeps_every_field_and_the_order(self, daily):
        decoded = _daily_from_dict(json.loads(json.dumps(_daily_to_dict(daily))))
        assert decoded == daily
        assert list(decoded.domains) == list(daily.domains)

    def test_a_multi_part_entry_decodes_to_the_concatenation_of_its_parts(self):
        collected = _study_report(2).snapshots[1]
        hosts = list(collected.domains)
        halves = [hosts[:25], hosts[25:]]
        parts = []
        for half in halves:
            piece = DailySnapshot(
                day=collected.day,
                domains={www: collected.domains[www] for www in half},
            )
            parts.extend(_daily_to_dict(piece)["parts"])
        assert len(parts) == 2
        decoded = _daily_from_dict({"day": collected.day, "parts": parts})
        assert decoded == collected
        assert list(decoded.domains) == hosts
