"""Merge-rule unit tests: payload folding and its structural refusals."""

import copy

import pytest

from repro.core.study import SixWeekStudy, StudyConfig
from repro.errors import ShardError
from repro.shard import merge_payloads, overlay_merged
from repro.shard.merge import PAYLOAD_VERSION
from repro.shard.runner import InlineExecutor, WorkerSpec, _drive_lockstep
from repro.world import SimulatedInternet, WorldConfig


@pytest.fixture(scope="module")
def payloads():
    """Two real shard payloads from one tiny inline campaign."""
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
    _drive_lockstep(executor, config, start_barrier=0)
    return executor.call_all("finish")


class TestMergePayloads:
    def test_merged_payload_is_monolithic_shaped(self, payloads):
        merged = merge_payloads(payloads)
        assert merged["payload_version"] == PAYLOAD_VERSION
        assert merged["shard"] == {"index": 0, "count": 1}
        assert merged["population"] == payloads[0]["population"]

    def test_positional_series_concatenate_in_shard_order(self, payloads):
        merged = merge_payloads(payloads)
        for position, snapshot in enumerate(merged["report"]["snapshots"]):
            per_shard = [
                payload["report"]["snapshots"][position]
                for payload in payloads
            ]
            assert snapshot["domains"] == (
                per_shard[0]["domains"] + per_shard[1]["domains"]
            )

    def test_merge_is_independent_of_payload_arrival_order(self, payloads):
        forward = merge_payloads(payloads)
        backward = merge_payloads(list(reversed(payloads)))
        assert forward == backward

    def test_set_like_values_merge_sorted(self, payloads):
        merged = merge_payloads(payloads)
        assert merged["harvest"] == sorted(
            set(payloads[0]["harvest"]) | set(payloads[1]["harvest"])
        )

    def test_tallies_are_commutative_sums(self, payloads):
        merged = merge_payloads(payloads)
        for name, value in merged["metrics"].items():
            assert value == sum(
                payload["metrics"].get(name, 0) for payload in payloads
            )
        assert merged["report"]["unmeasured_daily_counts"] == [
            sum(
                payload["report"]["unmeasured_daily_counts"][position]
                for payload in payloads
            )
            for position in range(
                len(payloads[0]["report"]["unmeasured_daily_counts"])
            )
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

    def test_skipped_scan_week_disagreement(self, payloads):
        mutated = copy.deepcopy(payloads)
        mutated[1]["report"]["skipped_scan_weeks"] = [99]
        with pytest.raises(ShardError, match="skipped scan weeks"):
            merge_payloads(mutated)


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
