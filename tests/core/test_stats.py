"""Tests for the calibration-statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.stats import (
    CalibrationCheck,
    count_zscore,
    poisson_interval,
    proportion_zscore,
    wilson_interval,
)


class TestWilson:
    def test_symmetric_at_half(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert abs((0.5 - low) - (high - 0.5)) < 1e-9

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_extremes_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0 and high < 0.5
        low, high = wilson_interval(10, 10)
        assert high == 1.0 and low > 0.5

    def test_narrows_with_more_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_contains_point_estimate(self, successes, extra):
        trials = successes + extra
        if trials == 0:
            return
        low, high = wilson_interval(successes, trials)
        assert low <= successes / trials <= high


class TestPoisson:
    def test_zero_count(self):
        low, high = poisson_interval(0)
        assert low == 0.0 and high > 0

    def test_contains_count(self):
        for count in (1, 5, 50, 500):
            low, high = poisson_interval(count)
            assert low <= count <= high

    def test_relative_width_shrinks(self):
        def rel_width(count):
            low, high = poisson_interval(count)
            return (high - low) / count
        assert rel_width(400) < rel_width(16)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            poisson_interval(-1)


class TestZscores:
    def test_count_zscore_zero_at_expectation(self):
        assert count_zscore(25, 25.0) == 0.0

    def test_count_zscore_scale(self):
        assert count_zscore(30, 25.0) == pytest.approx(1.0)

    def test_count_zscore_zero_expectation(self):
        assert count_zscore(0, 0.0) == 0.0
        assert math.isinf(count_zscore(1, 0.0))

    def test_proportion_zscore_sign(self):
        assert proportion_zscore(70, 100, 0.5) > 0
        assert proportion_zscore(30, 100, 0.5) < 0
        assert proportion_zscore(50, 100, 0.5) == pytest.approx(0.0)

    def test_proportion_zscore_empty(self):
        assert proportion_zscore(0, 0, 0.5) == 0.0


class TestCalibrationCheck:
    def test_within_noise(self):
        assert CalibrationCheck("x", 1.0, 1.1, zscore=1.5).within_noise
        assert not CalibrationCheck("x", 1.0, 3.0, zscore=4.2).within_noise
