"""The shard plan — the partition arithmetic of
:func:`~repro.core.study.shard_bounds` and the driver's topology
refusals: exact coverage, balance, loud refusals."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.study import shard_bounds
from repro.errors import ConfigurationError
from repro.shard import run_campaign


def all_bounds(population, shard_count):
    return [shard_bounds(population, index, shard_count) for index in range(shard_count)]


def sizes(population, shard_count):
    return [end - start for start, end in all_bounds(population, shard_count)]


class TestShardPlan:
    def test_bounds_cover_population_exactly_once(self):
        covered = [
            index
            for start, end in all_bounds(10, 3)
            for index in range(start, end)
        ]
        assert covered == list(range(10))

    def test_sizes_are_balanced_and_in_shard_order(self):
        assert sizes(10, 3) == [4, 3, 3]
        assert sum(sizes(10, 3)) == 10

    def test_single_shard_is_the_whole_population(self):
        assert shard_bounds(7, 0, 1) == (0, 7)

    @pytest.mark.parametrize(
        "population, shard_count",
        [(0, 1), (10, 0), (10, -1), (2, 3)],
    )
    def test_bad_topologies_are_refused(self, population, shard_count):
        # Refused by the driver before any world is built.
        with pytest.raises(ConfigurationError):
            run_campaign(population=population, seed=1, shard_count=shard_count)

    def test_out_of_range_shard_index_is_refused(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 2, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, -1, 2)

    @given(
        population=st.integers(min_value=1, max_value=500),
        shard_count=st.integers(min_value=1, max_value=32),
    )
    def test_property_partition_is_exact_contiguous_and_balanced(
        self, population, shard_count
    ):
        if shard_count > population:
            with pytest.raises(ConfigurationError):
                run_campaign(population=population, seed=1, shard_count=shard_count)
            return
        bounds = all_bounds(population, shard_count)
        # Contiguous: each shard starts where the previous one ended.
        assert bounds[0][0] == 0
        assert bounds[-1][1] == population
        for (_, previous_end), (start, _) in zip(bounds, bounds[1:]):
            assert start == previous_end
        # Balanced: sizes differ by at most one, larger shards first.
        shard_sizes = sizes(population, shard_count)
        assert max(shard_sizes) - min(shard_sizes) <= 1
        assert shard_sizes == sorted(shard_sizes, reverse=True)

    @given(
        population=st.integers(min_value=1, max_value=300),
        shard_count=st.integers(min_value=1, max_value=16),
        shard_index=st.integers(min_value=0, max_value=15),
    )
    def test_property_bounds_need_no_coordination(
        self, population, shard_count, shard_index
    ):
        """One shard's bounds, computed alone, agree with the whole
        partition laid out shard by shard."""
        if shard_index >= shard_count or shard_count > population:
            return
        base, extra = divmod(population, shard_count)
        laid_out = [base + (1 if index < extra else 0) for index in range(shard_count)]
        start = sum(laid_out[:shard_index])
        assert shard_bounds(population, shard_index, shard_count) == (
            start,
            start + laid_out[shard_index],
        )
