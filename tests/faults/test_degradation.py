"""Graceful degradation: UNMEASURED propagation, carry-forward diffing,
and nameserver quarantine semantics."""

import pytest

from repro.clock import SECONDS_PER_HOUR, SimulationClock
from repro.core.behaviors import BehaviorDetector
from repro.core.collector import DnsRecordCollector, DomainSnapshot
from repro.core.matching import ProviderMatcher
from repro.core.status import DpsObservation, DpsStatus, StatusDeterminer
from repro.dns.message import Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.dns.resolver import ResolutionResult
from repro.errors import ConfigurationError
from repro.faults import FaultKind, FaultPlan, FaultRule, NameserverQuarantine
from repro.net.ipaddr import IPv4Address
from repro.world.admin import BehaviorKind


def obs(www, day, status, provider=None):
    return DpsObservation(www=www, day=day, status=status, provider=provider)


class TestUnmeasuredStatus:
    def test_unmeasured_snapshot_becomes_unmeasured_observation(self, shared_world):
        determiner = StatusDeterminer(
            ProviderMatcher(shared_world.specs, shared_world.routeviews)
        )
        snapshot = DomainSnapshot(
            day=3,
            www=DomainName("www.example.com"),
            a_records=(),
            cnames=(),
            ns_targets=(),
            rcode=Rcode.SERVFAIL,
            measured=False,
        )
        observation = determiner.observe(snapshot)
        assert observation.status == DpsStatus.UNMEASURED
        assert not observation.is_measured
        assert observation.provider is None

    def test_gave_up_resolution_marks_snapshot_unmeasured(self):
        www = DomainName("www.example.com")
        gave_up = ResolutionResult(www, RecordType.A, Rcode.SERVFAIL, gave_up=True)
        clean = ResolutionResult(www.apex, RecordType.NS, Rcode.NOERROR)
        snapshot = DnsRecordCollector._snapshot_from_results(www, 1, gave_up, clean)
        assert not snapshot.measured
        # Either leg giving up taints the whole site-day.
        snapshot = DnsRecordCollector._snapshot_from_results(www, 1, clean, gave_up)
        assert not snapshot.measured

    def test_collector_counts_partial_days(self, world_factory):
        world = world_factory(population_size=60, seed=13)
        world.install_faults(
            FaultPlan(
                seed=world.rng.fork("degradation-test").seed,
                clock=world.clock,
                rules=[FaultRule(FaultKind.OUTAGE, plane="dns")],
            )
        )
        resolver = world.make_resolver()
        collector = DnsRecordCollector(resolver)
        snapshot = collector.collect(
            [str(site.www) for site in world.population[:10]], day=0
        )
        assert snapshot.is_partial
        assert snapshot.unmeasured_count == 10
        assert resolver.metrics.value("collector.partial_days") == 1
        assert resolver.metrics.value("collector.unmeasured") == 10


class TestCarryForwardDiffing:
    def test_hole_does_not_fabricate_leave_join(self):
        days = [
            {"a": obs("a", 0, DpsStatus.ON, "cloudflare")},
            {"a": obs("a", 1, DpsStatus.UNMEASURED)},
            {"a": obs("a", 2, DpsStatus.ON, "cloudflare")},
        ]
        assert BehaviorDetector().diff_series(days, first_day=1) == []

    def test_transition_across_hole_attributed_to_observed_day(self):
        days = [
            {"a": obs("a", 0, DpsStatus.ON, "cloudflare")},
            {"a": obs("a", 1, DpsStatus.UNMEASURED)},
            {"a": obs("a", 2, DpsStatus.NONE)},
        ]
        behaviors = BehaviorDetector().diff_series(days, first_day=1)
        assert len(behaviors) == 1
        assert behaviors[0].kind is BehaviorKind.LEAVE
        assert behaviors[0].day == 2  # first_day + index - 1

    def test_no_holes_matches_pairwise_diffing(self):
        days = [
            {"a": obs("a", 0, DpsStatus.NONE), "b": obs("b", 0, DpsStatus.ON, "incapsula")},
            {"a": obs("a", 1, DpsStatus.ON, "cloudflare"), "b": obs("b", 1, DpsStatus.OFF, "incapsula")},
            {"a": obs("a", 2, DpsStatus.ON, "cloudflare"), "b": obs("b", 2, DpsStatus.NONE)},
        ]
        detector = BehaviorDetector()
        series = detector.diff_series(days, first_day=5)
        pairwise = []
        for index in range(1, len(days)):
            pairwise.extend(
                detector.diff_pair(days[index - 1], days[index], day=5 + index - 1)
            )
        assert series == pairwise

    def test_unmeasured_first_day_skipped_until_measured(self):
        days = [
            {"a": obs("a", 0, DpsStatus.UNMEASURED)},
            {"a": obs("a", 1, DpsStatus.ON, "cloudflare")},
        ]
        # No prior measured observation: nothing to diff against.
        assert BehaviorDetector().diff_series(days) == []


class TestNameserverQuarantine:
    ADDR = IPv4Address("10.0.0.1")
    OTHER = IPv4Address("10.0.0.2")

    def test_partition_prefers_healthy_servers(self):
        clock = SimulationClock()
        quarantine = NameserverQuarantine(clock)
        quarantine.quarantine(self.ADDR)
        preferred, deferred = quarantine.partition([self.ADDR, self.OTHER])
        assert preferred == [self.OTHER]
        assert deferred == [self.ADDR]

    def test_reprobe_due_after_interval(self):
        clock = SimulationClock()
        quarantine = NameserverQuarantine(clock, reprobe_after_s=SECONDS_PER_HOUR)
        quarantine.quarantine(self.ADDR)
        assert not quarantine.reprobe_due(self.ADDR)
        clock.advance(SECONDS_PER_HOUR)
        assert quarantine.reprobe_due(self.ADDR)
        preferred, deferred = quarantine.partition([self.ADDR])
        assert preferred == [self.ADDR] and deferred == []

    def test_requarantine_pushes_due_but_keeps_first_seen(self):
        clock = SimulationClock()
        quarantine = NameserverQuarantine(clock, reprobe_after_s=100)
        quarantine.quarantine(self.ADDR)
        clock.advance(50)
        quarantine.quarantine(self.ADDR)
        [(address, at, due)] = quarantine.snapshot()
        assert address == str(self.ADDR)
        assert at == 0 and due == 150

    def test_release_is_idempotent(self):
        quarantine = NameserverQuarantine(SimulationClock())
        quarantine.release(self.ADDR)  # no-op
        quarantine.quarantine(self.ADDR)
        quarantine.release(self.ADDR)
        assert len(quarantine) == 0

    def test_rejects_nonpositive_reprobe_interval(self):
        with pytest.raises(ConfigurationError):
            NameserverQuarantine(SimulationClock(), reprobe_after_s=0)
