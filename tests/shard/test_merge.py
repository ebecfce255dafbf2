"""Merge-rule unit tests: barrier deltas, finish payloads, refusals."""

import copy

import pytest

from repro.core.collector import UNMEASURED
from repro.core.study import SixWeekStudy, StudyConfig
from repro.errors import ShardError
from repro.scenario import Scenario
from repro.shard import merge_payloads, overlay_merged
from repro.shard.merge import (
    PAYLOAD_VERSION,
    merge_barrier_deltas,
    worker_payload,
)
from repro.shard.runner import InlineExecutor, WorkerSpec, _drive_lockstep
from repro.world import SimulatedInternet, WorldConfig


@pytest.fixture(scope="module")
def campaign():
    """Every barrier's answers and the finish payloads of one tiny
    inline two-shard campaign."""
    config = StudyConfig(warmup_days=4, study_days=3)
    specs = [
        WorkerSpec(
            shard_index=index,
            shard_count=2,
            population=60,
            seed=5,
            config=config,
        )
        for index in range(2)
    ]
    executor = InlineExecutor(specs)
    executor.start()
    barriers = []
    _drive_lockstep(executor, config, start_barrier=0, fold=barriers.append)
    return barriers, executor.call_all("finish")


@pytest.fixture(scope="module")
def deltas(campaign):
    """The two shards' answers to barrier 1: study day 0 and its scan."""
    return campaign[0][1]


@pytest.fixture(scope="module")
def payloads(campaign):
    return campaign[1]


class TestBarrierDeltas:
    def test_every_barrier_after_the_first_ships_one_day(self, campaign):
        barriers, _ = campaign
        assert len(barriers) == 4
        for barrier, answers in enumerate(barriers):
            assert [a["barrier"] for a in answers] == [barrier, barrier]
            for answer in answers:
                assert len(answer["report"]["days"]) == min(barrier, 1)

    def test_finish_payloads_carry_empty_day_series(self, payloads):
        for payload in payloads:
            report = payload["report"]
            assert report["since"]["days"] == 3
            for series in (
                "days",
                "skipped_scan_weeks",
                "cloudflare_weekly",
                "incapsula_weekly",
            ):
                assert report[series] == [], series


class TestMergePayloads:
    def test_merged_payload_is_monolithic_shaped(self, payloads):
        merged = merge_payloads(payloads)
        assert merged["payload_version"] == PAYLOAD_VERSION
        assert merged["shard"] == {"index": 0, "count": 1}
        assert merged["population"] == payloads[0]["population"]

    def test_positional_series_concatenate_in_shard_order(self, deltas):
        merged = merge_barrier_deltas(deltas)
        reports = [delta["report"] for delta in deltas]
        assert merged["days"]
        for position, day in enumerate(merged["days"]):
            per_shard = [report["days"][position] for report in reports]
            assert day["parts"] == (
                per_shard[0]["parts"] + per_shard[1]["parts"]
            )
        for position, weekly in enumerate(merged["cloudflare_weekly"]):
            assert weekly["hidden"] == (
                reports[0]["cloudflare_weekly"][position]["hidden"]
                + reports[1]["cloudflare_weekly"][position]["hidden"]
            )

    def test_merge_is_independent_of_payload_arrival_order(
        self, deltas, payloads
    ):
        forward = merge_payloads(payloads)
        backward = merge_payloads(list(reversed(payloads)))
        assert forward == backward
        assert merge_barrier_deltas(deltas) == merge_barrier_deltas(
            list(reversed(deltas))
        )

    def test_set_like_values_merge_sorted(self, deltas, payloads):
        merged = merge_payloads(payloads)
        assert merged["harvest"] == sorted(
            set(payloads[0]["harvest"]) | set(payloads[1]["harvest"])
        )

    def test_tallies_are_commutative_sums(self, deltas, payloads):
        merged = merge_payloads(payloads)
        for name, value in merged["metrics"].items():
            assert value == sum(
                payload["metrics"].get(name, 0) for payload in payloads
            )
        merged_delta = merge_barrier_deltas(deltas)
        reports = [delta["report"] for delta in deltas]
        # A merged day's parts are the shards' parts, so its UNMEASURED
        # count is the sum of theirs.
        for position, day in enumerate(merged_delta["days"]):
            assert [
                part["status"].count(UNMEASURED) for part in day["parts"]
            ] == [
                part["status"].count(UNMEASURED)
                for report in reports
                for part in report["days"][position]["parts"]
            ]


class TestMergeRefusals:
    def test_nothing_to_merge(self):
        with pytest.raises(ShardError, match="nothing to merge"):
            merge_payloads([])

    def test_unknown_payload_version(self, payloads):
        mutated = copy.deepcopy(payloads)
        mutated[0]["payload_version"] = PAYLOAD_VERSION + 1
        with pytest.raises(ShardError, match="version"):
            merge_payloads(mutated)

    def test_incomplete_topology(self, payloads):
        with pytest.raises(ShardError, match="1 payload"):
            merge_payloads([copy.deepcopy(payloads[0])])

    def test_duplicate_shard_indices(self, payloads):
        duplicated = [copy.deepcopy(payloads[0]) for _ in range(2)]
        with pytest.raises(ShardError, match="do not cover"):
            merge_payloads(duplicated)

    def test_lockstep_position_disagreement(self, payloads):
        mutated = copy.deepcopy(payloads)
        mutated[1]["day_index"] += 1
        with pytest.raises(ShardError, match="disagree on day_index"):
            merge_payloads(mutated)

    def test_skipped_scan_week_disagreement(self, deltas):
        mutated = copy.deepcopy(deltas)
        mutated[1]["report"]["skipped_scan_weeks"] = [99]
        with pytest.raises(ShardError, match="skipped scan weeks"):
            merge_barrier_deltas(mutated)

    def test_barrier_disagreement(self, deltas):
        mutated = copy.deepcopy(deltas)
        mutated[1]["barrier"] += 1
        with pytest.raises(ShardError, match="disagree on barrier"):
            merge_barrier_deltas(mutated)

    @pytest.mark.parametrize(
        "series", ["days"]
    )
    def test_disagreeing_day_bases_are_refused(self, campaign, series):
        mutated = copy.deepcopy(campaign[0][2])
        mutated[1]["report"]["since"][series] += 1
        with pytest.raises(ShardError, match=f"{series} from different day bases"):
            merge_barrier_deltas(mutated)

    def test_whole_and_delta_reports_do_not_mix(self, campaign):
        mutated = copy.deepcopy(campaign[0][2])
        mutated[0]["report"]["since"] = None
        with pytest.raises(ShardError, match="whole reports and others"):
            merge_barrier_deltas(mutated)


class TestOverlayRefusals:
    def test_overlay_refuses_a_sharded_runtime(self):
        world = SimulatedInternet(WorldConfig(population_size=40, seed=3))
        study = SixWeekStudy(
            world, StudyConfig(warmup_days=2, study_days=2)
        )
        runtime = study.begin(0, 2)
        with pytest.raises(ShardError, match="unsharded coordinator"):
            overlay_merged(study, runtime, {})

    def test_overlay_refuses_a_mismatched_study_start(self):
        world = SimulatedInternet(WorldConfig(population_size=40, seed=3))
        study = SixWeekStudy(
            world, StudyConfig(warmup_days=2, study_days=2)
        )
        runtime = study.begin()
        merged = {"study_start_day": runtime.study_start_day + 1}
        with pytest.raises(ShardError, match="starts its study"):
            overlay_merged(study, runtime, merged)


#: ``(scenario field, profile, fabric view)`` for each world-side plane
#: the merge must agree on.
PLANE_PROFILES = [
    ("traffic", "surge", "traffic_plane"),
    ("attacks", "campaign", "attack_plane"),
]


def _planed_study(shard_index=0, shard_count=1, plane=None, redrive=False):
    """A tiny begun study, optionally with one plane installed.

    ``redrive`` drives the plane one extra day without moving the clock,
    so its drive state drifts away from an identically built replica's.
    """
    world = SimulatedInternet(WorldConfig(population_size=40, seed=3))
    study = SixWeekStudy(world, StudyConfig(warmup_days=2, study_days=2))
    runtime = study.begin(shard_index, shard_count)
    if plane is not None:
        field, profile, view = plane
        Scenario(**{field: profile}).install(world)
        if redrive:
            getattr(world.fabric, view).drive_day()
    return study, runtime


def _payload(study, runtime):
    """A begun, never-stepped study's finish payload."""
    return worker_payload(study, runtime, since=None)


class TestPlaneAgreementRefusals:
    """Workers and the coordinator must agree on every installed plane."""

    @pytest.mark.parametrize("plane", PLANE_PROFILES, ids=lambda p: p[0])
    def test_workers_disagreeing_on_whether_a_plane_is_installed(self, plane):
        payloads = [
            _payload(*_planed_study(0, 2, plane)),
            _payload(*_planed_study(1, 2)),
        ]
        with pytest.raises(ShardError, match=r"workers disagree on the \w+ plane's state"):
            merge_payloads(payloads)

    @pytest.mark.parametrize("plane", PLANE_PROFILES, ids=lambda p: p[0])
    def test_workers_disagreeing_on_a_plane_s_drive_state(self, plane):
        payloads = [
            _payload(*_planed_study(0, 2, plane)),
            _payload(*_planed_study(1, 2, plane, redrive=True)),
        ]
        with pytest.raises(ShardError, match=r"workers disagree on the \w+ plane's state"):
            merge_payloads(payloads)

    @pytest.mark.parametrize("plane", PLANE_PROFILES, ids=lambda p: p[0])
    def test_coordinator_without_the_workers_plane(self, plane):
        merged = merge_payloads([_payload(*_planed_study(plane=plane))])
        study, runtime = _planed_study()
        with pytest.raises(
            ShardError,
            match="workers and the coordinator disagree about whether",
        ):
            overlay_merged(study, runtime, merged)

    @pytest.mark.parametrize("plane", PLANE_PROFILES, ids=lambda p: p[0])
    def test_coordinator_with_a_plane_the_workers_lack(self, plane):
        merged = merge_payloads([_payload(*_planed_study())])
        study, runtime = _planed_study(plane=plane)
        with pytest.raises(
            ShardError,
            match="workers and the coordinator disagree about whether",
        ):
            overlay_merged(study, runtime, merged)

    @pytest.mark.parametrize("plane", PLANE_PROFILES, ids=lambda p: p[0])
    def test_coordinator_plane_drifted_from_the_workers(self, plane):
        merged = merge_payloads([_payload(*_planed_study(plane=plane))])
        study, runtime = _planed_study(plane=plane, redrive=True)
        with pytest.raises(
            ShardError, match="plane diverged from the workers'"
        ):
            overlay_merged(study, runtime, merged)
