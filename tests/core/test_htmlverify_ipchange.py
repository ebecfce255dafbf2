"""Tests for HTML verification and the Table V experiment."""

import pytest

from repro.core.behaviors import MeasuredBehavior
from repro.core.collector import DayTable
from repro.core.htmlverify import HtmlVerifier
from repro.core.ip_change import IpChangeExperiment
from repro.dns.name import DomainName
from repro.dps.portal import ReroutingMethod
from repro.world.admin import BehaviorKind

from ..tables import collector_for


@pytest.fixture
def world(world_factory):
    return world_factory(population_size=60, seed=29)


def _unprotected(world, want_dynamic=False, want_firewall=False):
    for site in world.population:
        if site.provider is not None or not site.alive or site.multicdn:
            continue
        if site.dynamic_meta != want_dynamic:
            continue
        if site.firewall_inclined != want_firewall:
            continue
        return site
    pytest.skip("no matching site at this seed")


class TestHtmlVerifier:
    def test_verifies_same_origin_through_edge(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        origin_ip = site.origin.ip
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        verifier = HtmlVerifier(world.http_client("oregon"))
        outcome = verifier.verify(site.www, edge_ip, origin_ip)
        assert outcome.verified
        assert outcome.reason == "match"

    def test_rejects_unrelated_candidate(self, world):
        site = _unprotected(world)
        other = next(
            s for s in world.population
            if s is not site and s.provider is None and s.alive and not s.multicdn
        )
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        verifier = HtmlVerifier(world.http_client("oregon"))
        outcome = verifier.verify(site.www, edge_ip, other.origin.ip)
        assert not outcome.verified
        assert outcome.reason == "content-mismatch"

    def test_dynamic_meta_is_false_negative(self, world):
        """§IV-C-3: dynamic meta attributes make true origins unverifiable
        — the lower-bound property."""
        site = _unprotected(world, want_dynamic=True)
        cf = world.provider("cloudflare")
        origin_ip = site.origin.ip
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        verifier = HtmlVerifier(world.http_client("oregon"))
        outcome = verifier.verify(site.www, edge_ip, origin_ip)
        assert not outcome.verified
        assert outcome.reason == "meta-mismatch"

    def test_firewalled_origin_is_false_negative(self, world):
        site = _unprotected(world, want_firewall=True)
        cf = world.provider("cloudflare")
        origin_ip = site.origin.ip
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        verifier = HtmlVerifier(world.http_client("oregon"))
        outcome = verifier.verify(site.www, edge_ip, origin_ip)
        assert not outcome.verified
        assert outcome.reason == "candidate-unreachable"

    def test_unreachable_reference_fails(self, world):
        site = _unprotected(world)
        verifier = HtmlVerifier(world.http_client("oregon"))
        dark_ip = "198.18.63.254"  # unassigned cloud address
        outcome = verifier.verify(site.www, dark_ip, site.origin.ip)
        assert not outcome.verified
        assert outcome.reason == "reference-fetch-failed"

    def test_attempt_counter(self, world):
        site = _unprotected(world)
        verifier = HtmlVerifier(world.http_client("oregon"))
        verifier.verify(site.www, site.origin.ip, site.origin.ip)
        assert verifier.attempts == 1


class TestIpChangeExperiment:
    def _run_join(self, world, rotate):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        collector = collector_for(world)
        www = str(site.www)
        before = collector.collect([www], day=0)
        site.join(cf, ReroutingMethod.NS_BASED, rotate_origin_ip=rotate)
        after = collector.collect([www], day=1)
        behaviors = [
            MeasuredBehavior(day=1, www=www, kind=BehaviorKind.JOIN, to_provider="cloudflare")
        ]
        verifier = HtmlVerifier(world.http_client("oregon"))
        return IpChangeExperiment(verifier).run(behaviors, [before, after], first_day=0)

    def test_unchanged_ip_detected(self, world):
        result = self._run_join(world, rotate=False)
        row = result.rows["cloudflare"]
        assert row.join_resume == 1
        assert row.unchanged == 1
        assert row.percentage == pytest.approx(1.0)

    def test_rotated_ip_detected_as_changed(self, world):
        result = self._run_join(world, rotate=True)
        row = result.rows["cloudflare"]
        assert row.join_resume == 1
        assert row.unchanged == 0

    def test_switch_events_excluded(self, world):
        behaviors = [
            MeasuredBehavior(
                day=1, www="www.x.com", kind=BehaviorKind.SWITCH,
                from_provider="cloudflare", to_provider="incapsula",
            )
        ]
        verifier = HtmlVerifier(world.http_client("oregon"))
        empty = DayTable(day=0, hostnames=[])
        result = IpChangeExperiment(verifier).run(behaviors, [empty])
        assert result.rows == {}

    def test_missing_prior_snapshot_skipped(self, world):
        behaviors = [
            MeasuredBehavior(day=5, www="www.x.com", kind=BehaviorKind.JOIN,
                             to_provider="fastly")
        ]
        verifier = HtmlVerifier(world.http_client("oregon"))
        result = IpChangeExperiment(verifier).run(behaviors, [DayTable(5, [])])
        assert result.total.join_resume == 0

    def test_total_row_aggregates(self, world):
        result = self._run_join(world, rotate=False)
        assert result.total.join_resume == sum(
            row.join_resume for row in result.rows.values()
        )

    def test_percentage_zero_when_empty(self):
        from repro.core.ip_change import IpUnchangedRow
        assert IpUnchangedRow("x").percentage == 0.0
