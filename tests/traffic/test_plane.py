"""Tests for the traffic plane: drive determinism, order-free admission,
profile registry, and checkpoint round-trips."""

from dataclasses import replace

import pytest

from repro.clock import SimulationClock
from repro.dns.message import DnsQuery, Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.errors import (
    CheckpointCorruptError,
    ConfigurationError,
)
from repro.net.geo import region
from repro.net.ipaddr import IPv4Address
from repro.obs.metrics import MetricsRegistry
from repro.rng import SeededRng
from repro.traffic import TRAFFIC_PROFILES, TrafficPlane

FLEETS = {
    "cloudflare": [IPv4Address("10.1.0.1"), IPv4Address("10.1.0.2")],
    "incapsula": [IPv4Address("10.2.0.1")],
}


def make_plane(profile_name="surge", metrics=None, clock=None, **overrides):
    profile = TRAFFIC_PROFILES[profile_name]
    if overrides:
        profile = replace(profile, **overrides)
    clock = clock if clock is not None else SimulationClock()
    rng = SeededRng(99).fork("traffic-test")
    return (
        TrafficPlane(
            profile,
            clock,
            rng,
            {name: list(ips) for name, ips in FLEETS.items()},
            metrics=metrics,
        ),
        clock,
    )


def drive(plane, clock, days):
    for _ in range(days):
        plane.drive_day()
        clock.advance_days(1)


class TestProfiles:
    def test_registry_names_match_profiles(self):
        for name, profile in TRAFFIC_PROFILES.items():
            assert profile.name == name

    def test_steady_is_the_equivalence_profile(self):
        assert TRAFFIC_PROFILES["steady"].expect_equivalence
        assert not TRAFFIC_PROFILES["surge"].expect_equivalence
        assert not TRAFFIC_PROFILES["flood"].expect_equivalence

    def test_surge_factor_periodicity(self):
        surge = TRAFFIC_PROFILES["surge"]
        assert surge.surge_factor(7) == surge.surge_multiplier
        assert surge.surge_factor(8) == 1.0


class TestDrive:
    def test_same_seed_same_drive_state(self):
        a, clock_a = make_plane("flood")
        b, clock_b = make_plane("flood")
        drive(a, clock_a, 6)
        drive(b, clock_b, 6)
        assert a.drive_state() == b.drive_state()

    def test_flood_escalates_to_critical_and_sheds(self):
        # A hair-trigger breaker threshold: the three-server test fleet
        # sees intermittent per-address overloads, not consecutive runs.
        plane, clock = make_plane("flood", breaker_failure_threshold=1)
        drive(plane, clock, 6)
        assert plane.tier == "critical"
        assert any(key.startswith("breaker_trips.") and value > 0
                   for key, value in plane.tallies.items())
        assert any(key.startswith("shed.") and value > 0
                   for key, value in plane.tallies.items())

    def test_steady_never_leaves_normal(self):
        plane, clock = make_plane("steady")
        drive(plane, clock, 10)
        assert plane.tier == "normal"
        assert plane.tallies.get("tier_days.high", 0) == 0
        assert plane.tallies.get("tier_days.critical", 0) == 0
        assert not any(key.startswith("breaker_trips.")
                       for key in plane.tallies)

    def test_empty_fleet_rejected(self):
        profile = TRAFFIC_PROFILES["steady"]
        with pytest.raises(ConfigurationError):
            TrafficPlane(profile, SimulationClock(), SeededRng(1), {})


class TestAdmission:
    def make_throttling_plane(self):
        """A plane hand-forced into the critical tier (75% throttle)."""
        plane, clock = make_plane("flood")
        plane._limiter.update(1.0)
        return plane, clock

    def test_unmonitored_address_always_admitted(self):
        plane, _ = self.make_throttling_plane()
        query = DnsQuery(DomainName("www.example.com"), RecordType.A)
        assert plane.admit_dns(IPv4Address("10.9.9.9"), query, None) is None

    def test_normal_tier_admits_everything(self):
        plane, _ = make_plane("steady")
        query = DnsQuery(DomainName("www.example.com"), RecordType.A)
        for address in plane.monitored_addresses():
            assert plane.admit_dns(address, query, region("london")) is None

    def test_throttle_verdict_is_deterministic_and_order_free(self):
        plane, _ = self.make_throttling_plane()
        queries = [
            (address, DnsQuery(DomainName(f"www.site{i}.com"), RecordType.A))
            for i in range(40)
            for address in plane.monitored_addresses()
        ]
        forward = [
            plane.admit_dns(address, query, region("tokyo")) is None
            for address, query in queries
        ]
        backward = [
            plane.admit_dns(address, query, region("tokyo")) is None
            for address, query in reversed(queries)
        ]
        assert forward == backward[::-1]
        assert any(forward) and not all(forward)  # 75%: both outcomes occur

    def test_admission_never_mutates_drive_state(self):
        plane, _ = self.make_throttling_plane()
        before = plane.drive_state()
        query = DnsQuery(DomainName("www.example.com"), RecordType.A)
        for address in plane.monitored_addresses():
            plane.admit_dns(address, query, region("oregon"))
        assert plane.drive_state() == before

    def test_shed_verdict_carries_synthetic_refused(self):
        plane, clock = make_plane("flood")
        address = plane.monitored_addresses()[0]
        plane._breakers[str(address)].restore_state(
            {"state": "open", "failures": 0, "trips": 1, "open_until": 10}
        )
        query = DnsQuery(DomainName("www.example.com"), RecordType.A)
        verdict = plane.admit_dns(address, query, region("london"))
        assert verdict.outcome == "shed"
        assert verdict.response.rcode is Rcode.REFUSED
        assert verdict.latency_ms == plane.profile.retry_after_ms

    def test_throttled_verdict_looks_like_a_timeout(self):
        plane, _ = self.make_throttling_plane()
        query_source = (
            (address, DnsQuery(DomainName(f"www.s{i}.com"), RecordType.A))
            for i in range(200)
            for address in plane.monitored_addresses()
        )
        verdict = next(
            v
            for address, query in query_source
            for v in [plane.admit_dns(address, query, region("sydney"))]
            if v is not None
        )
        assert verdict.outcome == "throttled"
        assert verdict.response is None

    def test_defense_counters_split_by_provider_and_tier(self):
        metrics = MetricsRegistry()
        plane, _ = make_plane("flood", metrics=metrics)
        plane._limiter.update(1.0)
        for i in range(100):
            query = DnsQuery(DomainName(f"www.s{i}.com"), RecordType.A)
            for address in plane.monitored_addresses():
                plane.admit_dns(address, query, region("tokyo"))
        snapshot = metrics.snapshot()
        assert any(
            name.startswith("traffic.defense.cloudflare.critical.")
            for name in snapshot
        )
        assert any(
            name.startswith("traffic.defense.incapsula.critical.")
            for name in snapshot
        )


class TestCheckpointRoundTrip:
    def test_state_dict_round_trip_is_byte_identical(self):
        metrics = MetricsRegistry()
        plane, clock = make_plane("flood", metrics=metrics)
        drive(plane, clock, 5)
        for i in range(20):
            query = DnsQuery(DomainName(f"www.s{i}.com"), RecordType.A)
            plane.admit_dns(plane.monitored_addresses()[0], query, None)
        fresh_metrics = MetricsRegistry()
        fresh, _ = make_plane("flood", metrics=fresh_metrics)
        fresh.restore_state(plane.state_dict())
        assert fresh.state_dict() == plane.state_dict()
        assert fresh_metrics.snapshot() == metrics.snapshot()

    def test_restored_plane_continues_identically(self):
        a, clock_a = make_plane("flood")
        drive(a, clock_a, 4)
        b, clock_b = make_plane("flood")
        clock_b.advance_to_day(4)
        b.restore_state(a.state_dict())
        drive(a, clock_a, 3)
        drive(b, clock_b, 3)
        assert a.drive_state() == b.drive_state()

    def test_profile_mismatch_refused(self):
        a, clock_a = make_plane("flood")
        drive(a, clock_a, 2)
        b, _ = make_plane("surge")
        with pytest.raises(CheckpointCorruptError):
            b.restore_state(a.state_dict())

    def test_population_mismatch_refused(self):
        a, clock_a = make_plane("surge")
        drive(a, clock_a, 2)
        b, _ = make_plane("surge", clients_per_region=7)
        with pytest.raises(CheckpointCorruptError):
            b.restore_state(a.state_dict())

    def test_drive_state_excludes_measurement_counters(self):
        metrics = MetricsRegistry()
        plane, _ = make_plane("flood", metrics=metrics)
        plane._limiter.update(1.0)
        for i in range(50):
            query = DnsQuery(DomainName(f"www.s{i}.com"), RecordType.A)
            plane.admit_dns(plane.monitored_addresses()[0], query, None)
        # Per-shard defense counters differ across workers; the shard
        # payload's agreement-checked entry must not include them.
        assert "metrics" not in plane.drive_state()
        assert "metrics" in plane.state_dict()
