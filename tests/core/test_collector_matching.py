"""Tests for the DNS record collector and the A/CNAME/NS matchers."""

import pytest

from repro.core.matching import ProviderMatcher
from repro.dns.message import Rcode
from repro.dps.catalog import PAPER_PROVIDERS
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod

from ..tables import collector_for


@pytest.fixture
def world(world_factory):
    return world_factory(population_size=60, seed=13)


@pytest.fixture
def matcher(world):
    return ProviderMatcher(world.specs, world.routeviews)


def _unprotected(world):
    return next(
        s for s in world.population if s.provider is None and s.alive and not s.multicdn
    )


class TestCollector:
    def test_snapshot_fields_for_plain_site(self, world):
        site = _unprotected(world)
        collector = collector_for(world)
        snapshot = collector.collect([str(site.www)], day=0)
        record = snapshot.get(site.www)
        assert record.resolved
        assert record.a_records == (site.origin.ip,)
        assert record.cnames == ()
        assert any("hostco" in str(t) for t in record.ns_targets)

    def test_snapshot_for_ns_rerouted_site(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        collector = collector_for(world)
        record = collector.collect([str(site.www)], day=0).get(site.www)
        assert any(record.a_records[0] in p for p in cf.prefixes)
        assert any("ns.cloudflare" in str(t) for t in record.ns_targets)

    def test_snapshot_for_cname_rerouted_site(self, world):
        site = _unprotected(world)
        inc = world.provider("incapsula")
        site.join(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
        collector = collector_for(world)
        record = collector.collect([str(site.www)], day=0).get(site.www)
        assert any("incapdns" in str(t) for t in record.cnames)

    def test_dead_site_snapshot(self, world):
        site = _unprotected(world)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        site.leave(die=True)
        collector = collector_for(world)
        record = collector.collect([str(site.www)], day=0).get(site.www)
        assert not record.resolved
        assert record.rcode is Rcode.NXDOMAIN

    def test_cache_purged_between_runs(self, world):
        resolver = world.make_resolver()
        collector = collector_for(world, resolver)
        site = _unprotected(world)
        collector.collect([str(site.www)], day=0)
        assert len(resolver.cache) > 0
        # Move the site; a fresh run must see the new address (no stale A).
        new_ip = site.hosting.move_origin(site.origin)
        site.hosting.set_www_a(site.www, new_ip)
        record = collector.collect([str(site.www)], day=1).get(site.www)
        assert record.a_records == (new_ip,)

    def test_daily_snapshot_len_and_iter(self, world):
        hostnames = [str(s.www) for s in world.population[:10]]
        collector = collector_for(world)
        snapshot = collector.collect(hostnames, day=3)
        assert len(snapshot) == 10
        assert all(d.day == 3 for d in snapshot)


class TestAMatching:
    def test_provider_edge_matches(self, world, matcher):
        cf = world.provider("cloudflare")
        assert matcher.a_match(cf.edges[0].ip) == "cloudflare"

    def test_origin_space_does_not_match(self, world, matcher):
        site = world.population[0]
        assert matcher.a_match(site.origin.ip) is None

    def test_a_match_any_first_hit(self, world, matcher):
        cf = world.provider("cloudflare")
        site = world.population[0]
        assert matcher.a_match_any([site.origin.ip, cf.edges[0].ip]) == "cloudflare"

    def test_in_provider_ranges(self, world, matcher):
        inc = world.provider("incapsula")
        assert matcher.in_provider_ranges(inc.edges[0].ip)
        assert not matcher.in_provider_ranges(world.population[0].origin.ip)

    def test_offnet_edge_does_not_a_match(self, world, matcher):
        akamai = world.provider("akamai")
        if not akamai.offnet_edge_ips:
            pytest.skip("no off-net edges allocated")
        assert matcher.a_match(akamai.offnet_edge_ips[0]) is None


class TestCnameMatching:
    @pytest.mark.parametrize(
        "target,expected",
        [
            ("abc123.incapdns.net", "incapsula"),
            ("x.cloudflare.com", "cloudflare"),
            ("site.edgekey.net", "akamai"),
            ("d111.cloudfront.net", "cloudfront"),
            ("a.llnwd.net", "limelight"),
            ("cdn.hwcdn.net", "stackpath"),
            ("www.example.com", None),
            ("plain.net", None),
        ],
    )
    def test_substring_rules(self, matcher, target, expected):
        assert matcher.cname_match(target) == expected

    def test_single_label_name_no_match(self, matcher):
        assert matcher.cname_match("com") is None

    def test_cname_match_any_chain(self, matcher):
        chain = ["intermediate.example.net", "abc.incapdns.net"]
        assert matcher.cname_match_any(chain) == "incapsula"


class TestNsMatching:
    def test_cloudflare_ns(self, matcher):
        assert matcher.ns_match("kate.ns.cloudflare.com") == "cloudflare"

    def test_hosting_ns_no_match(self, matcher):
        assert matcher.ns_match("ns1.hostco1.net") is None

    def test_ns_match_any(self, matcher):
        assert (
            matcher.ns_match_any(["ns1.hostco1.net", "bob.ns.cloudflare.com"])
            == "cloudflare"
        )

    def test_substring_in_any_label(self, matcher):
        # "akam" appears as a label substring (Table II row for Akamai).
        assert matcher.ns_match("a1-2.akam.net") == "akamai"
