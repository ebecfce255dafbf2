"""Graceful degradation: UNMEASURED propagation, carry-forward diffing,
and nameserver quarantine semantics."""

import pytest

from repro.clock import SECONDS_PER_HOUR, SimulationClock
from repro.core.behaviors import BehaviorDetector
from repro.core.collector import DayTable
from repro.core.status import DpsStatus
from repro.dns.message import Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.dns.resolver import ResolutionResult
from repro.errors import ConfigurationError
from repro.faults import FaultKind, FaultPlan, FaultRule, NameserverQuarantine
from repro.net.ipaddr import IPv4Address
from repro.world.admin import BehaviorKind

from ..tables import collector_for, verdict_days

_WWW = DomainName("www.example.com")


def _collected(world, a_result, ns_result):
    """The one-row table a collector writes from these two results."""
    rows = collector_for(world)._rows([a_result], [ns_result])
    return DayTable.build(3, [str(_WWW)], rows)


class TestUnmeasuredStatus:
    def test_unmeasured_snapshot_becomes_unmeasured_observation(self, shared_world):
        gave_up = ResolutionResult(_WWW, RecordType.A, Rcode.SERVFAIL, gave_up=True)
        clean = ResolutionResult(_WWW.apex, RecordType.NS, Rcode.NOERROR)
        table = _collected(shared_world, gave_up, clean)
        assert table.snapshot(0).rcode is Rcode.SERVFAIL
        observation = table.observation(0)
        assert observation.status == DpsStatus.UNMEASURED
        assert observation.provider is None

    def test_gave_up_resolution_marks_snapshot_unmeasured(self, shared_world):
        gave_up = ResolutionResult(_WWW, RecordType.A, Rcode.SERVFAIL, gave_up=True)
        clean = ResolutionResult(_WWW.apex, RecordType.NS, Rcode.NOERROR)
        assert not _collected(shared_world, gave_up, clean).snapshot(0).measured
        # Either leg giving up taints the whole site-day.
        assert not _collected(shared_world, clean, gave_up).snapshot(0).measured

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
        collector = collector_for(world, resolver)
        snapshot = collector.collect(
            [str(site.www) for site in world.population[:10]], day=0
        )
        assert snapshot.unmeasured_count == 10
        assert resolver.metrics.value("collector.partial_days") == 1
        assert resolver.metrics.value("collector.unmeasured") == 10


class TestCarryForwardDiffing:
    def test_hole_does_not_fabricate_leave_join(self):
        days = verdict_days(
            {"a": (DpsStatus.ON, "cloudflare")},
            {"a": (DpsStatus.UNMEASURED, None)},
            {"a": (DpsStatus.ON, "cloudflare")},
        )
        assert BehaviorDetector().diff_series(days, first_day=1) == []

    def test_transition_across_hole_attributed_to_observed_day(self):
        days = verdict_days(
            {"a": (DpsStatus.ON, "cloudflare")},
            {"a": (DpsStatus.UNMEASURED, None)},
            {"a": (DpsStatus.NONE, None)},
        )
        behaviors = BehaviorDetector().diff_series(days, first_day=1)
        assert len(behaviors) == 1
        assert behaviors[0].kind is BehaviorKind.LEAVE
        assert behaviors[0].day == 2  # first_day + index - 1

    def test_no_holes_matches_pairwise_diffing(self):
        days = verdict_days(
            {"a": (DpsStatus.NONE, None), "b": (DpsStatus.ON, "incapsula")},
            {"a": (DpsStatus.ON, "cloudflare"), "b": (DpsStatus.OFF, "incapsula")},
            {"a": (DpsStatus.ON, "cloudflare"), "b": (DpsStatus.NONE, None)},
        )
        detector = BehaviorDetector()
        series = detector.diff_series(days, first_day=5)
        pairwise = []
        for index in range(1, len(days)):
            pairwise.extend(
                detector.diff_series(days[index - 1:index + 1], first_day=5 + index - 1)
            )
        assert series == pairwise

    def test_unmeasured_first_day_skipped_until_measured(self):
        days = verdict_days(
            {"a": (DpsStatus.UNMEASURED, None)},
            {"a": (DpsStatus.ON, "cloudflare")},
        )
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
