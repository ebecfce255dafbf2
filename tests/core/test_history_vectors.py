"""Tests for the passive-DNS database and the Table I attack vectors."""

import pytest

from repro.core.history import PassiveDnsDb
from repro.core.htmlverify import HtmlVerifier
from repro.core.matching import ProviderMatcher
from repro.core.vectors import OriginExposureScanner
from repro.dps.portal import ReroutingMethod

from ..tables import collector_for


@pytest.fixture
def world(world_factory):
    return world_factory(population_size=120, seed=61)


@pytest.fixture
def matcher(world):
    return ProviderMatcher(world.specs, world.routeviews)


@pytest.fixture
def scanner(world, matcher):
    return OriginExposureScanner(
        world.make_resolver(), matcher, HtmlVerifier(world.http_client("oregon"))
    )


def _site(world, dev=None, mx=None):
    for site in world.population:
        if site.provider is not None or not site.alive or site.multicdn:
            continue
        if site.dynamic_meta or site.firewall_inclined:
            continue
        if dev is not None and site.has_dev_subdomain != dev:
            continue
        if mx is not None and site.has_mx_leak != mx:
            continue
        return site
    pytest.skip("no matching site at this seed")


def _collect(world, sites, day=0):
    collector = collector_for(world)
    return collector.collect([str(s.www) for s in sites], day=day)


class TestPassiveDns:
    def test_observes_resolutions(self, world):
        site = _site(world)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site]))
        [entry] = db.history(site.www)
        assert site.origin.ip in entry.addresses

    def test_deduplicates_unchanged_days(self, world):
        site = _site(world)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=0))
        db.observe(_collect(world, [site], day=1))
        assert len(db.history(site.www)) == 1

    def test_records_change_points(self, world):
        site = _site(world)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=0))
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        db.observe(_collect(world, [site], day=1))
        history = db.history(site.www)
        assert len(history) == 2
        assert history[0].day == 0

    def test_candidate_origins_excludes_provider_space(self, world, matcher):
        site = _site(world)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=0))
        origin_ip = site.origin.ip
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        db.observe(_collect(world, [site], day=1))
        candidates = db.candidate_origins(site.www, matcher)
        assert candidates == [origin_ip]

    def test_before_day_cutoff(self, world, matcher):
        site = _site(world)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=5))
        assert db.candidate_origins(site.www, matcher, before_day=5) == []
        assert db.candidate_origins(site.www, matcher, before_day=6)

    def test_unresolved_sites_not_recorded(self, world):
        db = PassiveDnsDb()
        site = _site(world)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        site.leave(die=True)
        db.observe(_collect(world, [site]))
        assert db.history(site.www) == []
        assert len(db) == 0


class TestIpHistoryVector:
    def test_pre_dps_history_exposes_unrotated_origin(self, world, matcher, scanner):
        """Table I row 1 + §IV-C-3's point: joining without rotating the
        origin leaves the old address exploitable."""
        site = _site(world)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=0))
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED,
                  rotate_origin_ip=False)
        finding = scanner.ip_history(site.www, db)
        assert finding.exposed
        assert site.origin.ip in finding.verified_origins

    def test_rotation_defeats_ip_history(self, world, scanner):
        site = _site(world)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=0))
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED,
                  rotate_origin_ip=True)
        finding = scanner.ip_history(site.www, db)
        assert not finding.exposed  # the historical address is dead


class TestSubdomainVector:
    def test_dev_subdomain_exposes_origin(self, world, scanner):
        site = _site(world, dev=True)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        finding = scanner.subdomains(site.www)
        assert finding.exposed
        assert site.origin.ip in finding.verified_origins

    def test_site_without_leak_is_clean(self, world, scanner):
        site = _site(world, dev=False, mx=False)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        assert not scanner.subdomains(site.www).exposed
        assert not scanner.mx_records(site.www).exposed

    def test_subdomain_survives_cname_rerouting(self, world, scanner):
        # CNAME rerouting only repoints www; the hosting zone keeps dev.
        site = _site(world, dev=True)
        site.join(world.provider("fastly"), ReroutingMethod.CNAME_BASED)
        assert scanner.subdomains(site.www).exposed


class TestMxVector:
    def test_mx_exposes_shared_mail_host(self, world, scanner):
        site = _site(world, mx=True)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        finding = scanner.mx_records(site.www)
        assert finding.exposed
        assert site.origin.ip in finding.verified_origins


class TestSweep:
    def test_scan_site_runs_all_vectors(self, world, scanner):
        site = _site(world)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        db = PassiveDnsDb()
        findings = scanner.scan_site(site.www, db)
        assert [f.vector for f in findings] == ["ip-history", "subdomains", "mx-records"]

    def test_exposed_by_any(self, world, scanner):
        site = _site(world, dev=True)
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=0))
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        assert scanner.exposed_by_any(site.www, db)

    def test_firewalled_site_resists_all_vectors(self, world, matcher):
        site = next(
            (s for s in world.population
             if s.firewall_inclined and s.provider is None and s.alive
             and not s.multicdn),
            None,
        )
        if site is None:
            pytest.skip("no firewalled site at this seed")
        db = PassiveDnsDb()
        db.observe(_collect(world, [site], day=0))
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        scanner = OriginExposureScanner(
            world.make_resolver(), matcher,
            HtmlVerifier(world.http_client("oregon")),
        )
        # Candidates may be found, but none verify: the firewall drops
        # the direct probes.
        assert not scanner.exposed_by_any(site.www, db)
