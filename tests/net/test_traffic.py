"""Tests for the volumetric traffic and capacity model."""

import pytest

from repro.errors import ConfigurationError
from repro.net.traffic import CapacityTarget, TrafficFlow


class TestTrafficFlow:
    def test_totals(self):
        flow = TrafficFlow(legitimate_gbps=2.0, attack_gbps=8.0)
        assert flow.total_gbps == pytest.approx(10.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficFlow(legitimate_gbps=-1.0)
        with pytest.raises(ConfigurationError):
            TrafficFlow(attack_gbps=-0.1)

    def test_scaled(self):
        flow = TrafficFlow(2.0, 4.0).scaled(0.5)
        assert flow.legitimate_gbps == pytest.approx(1.0)
        assert flow.attack_gbps == pytest.approx(2.0)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficFlow(1.0, 1.0).scaled(-1)


class TestCapacityTarget:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CapacityTarget("x", 0.0)

    def test_under_capacity_everything_delivered(self):
        target = CapacityTarget("origin", 10.0)
        report = target.offer(TrafficFlow(2.0, 3.0))
        assert not report.saturated
        assert report.availability == pytest.approx(1.0)
        assert report.dropped_gbps == pytest.approx(0.0)

    def test_saturation_proportional_loss(self):
        target = CapacityTarget("origin", 10.0)
        report = target.offer(TrafficFlow(legitimate_gbps=10.0, attack_gbps=90.0))
        assert report.saturated
        # Only 10% gets through, split proportionally.
        assert report.delivered_legitimate_gbps == pytest.approx(1.0)
        assert report.delivered_attack_gbps == pytest.approx(9.0)
        assert report.availability == pytest.approx(0.1)
        assert report.dropped_gbps == pytest.approx(90.0)

    def test_exact_capacity_not_saturated(self):
        target = CapacityTarget("origin", 10.0)
        assert not target.offer(TrafficFlow(5.0, 5.0)).saturated

    def test_availability_with_no_legitimate_traffic(self):
        target = CapacityTarget("origin", 1.0)
        report = target.offer(TrafficFlow(0.0, 100.0))
        assert report.availability == 1.0  # vacuous

    def test_survives(self):
        target = CapacityTarget("origin", 10.0)
        assert target.survives(TrafficFlow(1.0, 5.0))
        assert not target.survives(TrafficFlow(1.0, 50.0))
