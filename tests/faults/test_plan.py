"""Unit tests for FaultRule scoping and FaultPlan verdict synthesis."""

import pytest

from repro.clock import SimulationClock
from repro.dns.message import DnsQuery, Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.errors import ConfigurationError
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.net.geo import region
from repro.net.ipaddr import IPv4Address, IPv4Prefix

ADDR = IPv4Address("10.1.2.3")
OTHER = IPv4Address("10.9.9.9")
QUERY = DnsQuery(DomainName("www.example.com"), RecordType.A)


def make_plan(rules, cap=None, clock=None):
    return FaultPlan(
        seed=7,
        clock=clock or SimulationClock(),
        rules=rules,
        max_failed_attempts=cap,
    )


class TestFaultRuleValidation:
    def test_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FaultRule(FaultKind.LOSS, probability=1.5)

    def test_unknown_plane(self):
        with pytest.raises(ConfigurationError):
            FaultRule(FaultKind.LOSS, plane="smtp")

    def test_latency_needs_positive_ms(self):
        with pytest.raises(ConfigurationError):
            FaultRule(FaultKind.LATENCY)

    @pytest.mark.parametrize("kind", [FaultKind.SERVFAIL, FaultKind.LAME])
    def test_dns_only_kinds_reject_http_plane(self, kind):
        with pytest.raises(ConfigurationError):
            FaultRule(kind, plane="http")


class TestFaultRuleMatching:
    def test_plane_scoping(self):
        rule = FaultRule(FaultKind.LOSS, plane="http")
        assert not rule.matches("dns", ADDR, QUERY.qname, None, 0)
        assert rule.matches("http", ADDR, QUERY.qname, None, 0)
        both = FaultRule(FaultKind.LOSS, plane="both")
        assert both.matches("dns", ADDR, QUERY.qname, None, 0)
        assert both.matches("http", ADDR, QUERY.qname, None, 0)

    def test_address_scoping(self):
        rule = FaultRule(FaultKind.LOSS, addresses=frozenset({ADDR}))
        assert rule.matches("dns", ADDR, None, None, 0)
        assert not rule.matches("dns", OTHER, None, None, 0)

    def test_prefix_scoping(self):
        rule = FaultRule(FaultKind.LOSS, prefix=IPv4Prefix("10.1.0.0/16"))
        assert rule.matches("dns", ADDR, None, None, 0)
        assert not rule.matches("dns", OTHER, None, None, 0)

    def test_zone_scoping(self):
        rule = FaultRule(FaultKind.LOSS, zone=DomainName("example.com"))
        assert rule.matches("dns", ADDR, DomainName("www.example.com"), None, 0)
        assert not rule.matches("dns", ADDR, DomainName("www.other.com"), None, 0)
        # Zone-scoped rules never match a delivery without a name.
        assert not rule.matches("dns", ADDR, None, None, 0)

    def test_region_scoping(self):
        rule = FaultRule(FaultKind.LOSS, region="sydney")
        assert rule.matches("dns", ADDR, None, region("sydney"), 0)
        assert not rule.matches("dns", ADDR, None, region("london"), 0)
        assert not rule.matches("dns", ADDR, None, None, 0)

    def test_day_window_half_open(self):
        rule = FaultRule(FaultKind.OUTAGE, from_day=10, until_day=12)
        assert not rule.matches("dns", ADDR, None, None, 9)
        assert rule.matches("dns", ADDR, None, None, 10)
        assert rule.matches("dns", ADDR, None, None, 11)
        assert not rule.matches("dns", ADDR, None, None, 12)


class TestFaultPlanVerdicts:
    def test_no_rules_delivers(self):
        plan = make_plan([])
        assert plan.admit_dns(ADDR, QUERY, None).delivered

    def test_loss_drops_with_no_response(self):
        plan = make_plan([FaultRule(FaultKind.LOSS)])
        verdict = plan.admit_dns(ADDR, QUERY, None)
        assert verdict.dropped and verdict.outcome == "loss"
        assert verdict.response is None
        assert plan.metrics.value("faults.dns.loss") == 1

    def test_servfail_synthesizes_response(self):
        plan = make_plan([FaultRule(FaultKind.SERVFAIL)])
        verdict = plan.admit_dns(ADDR, QUERY, None)
        assert not verdict.delivered and not verdict.dropped
        assert verdict.response.rcode is Rcode.SERVFAIL

    def test_lame_synthesizes_refused(self):
        plan = make_plan([FaultRule(FaultKind.LAME)])
        verdict = plan.admit_dns(ADDR, QUERY, None)
        assert verdict.response.rcode is Rcode.REFUSED

    def test_latency_is_cumulative_and_delivers(self):
        plan = make_plan(
            [
                FaultRule(FaultKind.LATENCY, latency_ms=30),
                FaultRule(FaultKind.LATENCY, latency_ms=20),
            ]
        )
        verdict = plan.admit_dns(ADDR, QUERY, None)
        assert verdict.delivered and verdict.latency_ms == 50
        assert plan.metrics.value("faults.dns.latency_ms") == 50

    def test_outage_window_follows_clock(self):
        clock = SimulationClock()
        plan = make_plan(
            [FaultRule(FaultKind.OUTAGE, from_day=1, until_day=2)], clock=clock
        )
        assert plan.admit_dns(ADDR, QUERY, None).delivered
        clock.advance_days(1)
        assert plan.admit_dns(ADDR, QUERY, None).outcome == "outage"
        clock.advance_days(1)
        assert plan.admit_dns(ADDR, QUERY, None).delivered

    def test_consecutive_cap_guarantees_delivery(self):
        plan = make_plan(
            [
                FaultRule(FaultKind.LOSS, probability=1.0),
                FaultRule(FaultKind.SERVFAIL, probability=1.0),
            ],
            cap=2,
        )
        outcomes = [
            plan.admit_dns(ADDR, QUERY, None, attempt).outcome
            for attempt in range(1, 5)
        ]
        # Attempts up to the cap fail; every later attempt skips both
        # probabilistic rules, whoever asks and in whatever order.
        assert outcomes == ["loss", "loss", "deliver", "deliver"]
        assert plan.admit_dns(OTHER, QUERY, None, 3).delivered
        assert plan.admit_dns(ADDR, QUERY, None, 1).outcome == "loss"
        assert plan.metrics.value("faults.dns.suppressed") == 6

    def test_outage_bypasses_consecutive_cap(self):
        plan = make_plan([FaultRule(FaultKind.OUTAGE)], cap=1)
        outcomes = [
            plan.admit_dns(ADDR, QUERY, None, attempt).outcome
            for attempt in range(1, 5)
        ]
        assert outcomes == ["outage"] * 4

    def test_http_plane_has_no_synthetic_dns_faults(self):
        plan = make_plan([FaultRule(FaultKind.SERVFAIL, plane="dns")])
        verdict = plan.admit_http(ADDR, DomainName("www.example.com"), None)
        assert verdict.delivered

    def test_http_loss_counted_on_http_counter(self):
        plan = make_plan([FaultRule(FaultKind.LOSS, plane="http")])
        verdict = plan.admit_http(ADDR, DomainName("www.example.com"), None)
        assert verdict.outcome == "loss"
        assert plan.metrics.value("faults.http.loss") == 1

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_plan([], cap=0)

    def test_deterministic_replay(self):
        rules = [FaultRule(FaultKind.LOSS, probability=0.5)]
        plan_a = make_plan(rules)
        plan_b = make_plan(rules)
        attempts = range(1, 33)
        outcomes_a = [plan_a.admit_dns(ADDR, QUERY, None, n).outcome for n in attempts]
        outcomes_b = [
            plan_b.admit_dns(ADDR, QUERY, None, n).outcome for n in reversed(attempts)
        ]
        # The verdict is keyed on the attempt, not on the call count:
        # asking in the opposite order replays the same fates.
        assert outcomes_a == outcomes_b[::-1]
        assert "loss" in outcomes_a and "deliver" in outcomes_a
        # The same delivery asked again gets the same verdict.
        assert plan_a.admit_dns(ADDR, QUERY, None, 1).outcome == outcomes_a[0]
