"""Tests for the Fig. 8 filter pipeline and the §V scanners."""

import pytest

from repro.core.htmlverify import HtmlVerifier
from repro.core.matching import ProviderMatcher
from repro.core.pipeline import FilterPipeline, RetrievedRecord
from repro.core.residual_scan import (
    CloudflareScanner,
    IncapsulaScanner,
    NameserverHarvest,
)
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod
from repro.net.ipaddr import IPv4Address
from repro.rng import SeededRng

from ..tables import collector_for


@pytest.fixture
def world(world_factory):
    return world_factory(population_size=80, seed=37)


def _unprotected(world):
    for site in world.population:
        if (
            site.provider is None and site.alive and not site.multicdn
            and not site.dynamic_meta and not site.firewall_inclined
        ):
            return site
    pytest.skip("no plain unprotected site")


def _pipeline(world, provider="cloudflare"):
    verifier = HtmlVerifier(world.http_client("oregon"))
    return FilterPipeline(
        world.provider(provider).prefixes, world.make_resolver(), verifier
    )


class TestFilterPipeline:
    def test_active_customer_record_ip_filtered(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare",
            addresses=(cf.customer_for(site.www).edge_ip,),
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert report.dropped_ip_filter == 1
        assert report.hidden_count == 0

    def test_publicly_visible_record_a_filtered(self, world):
        # A leaver who stayed at the same origin: the stored record
        # equals the public record → not hidden.
        site = _unprotected(world)
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare",
            addresses=(site.origin.ip,),
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert report.dropped_a_filter == 1
        assert report.hidden_count == 0

    def test_switcher_record_is_hidden_and_verified(self, world):
        """The canonical Table VI case."""
        site = _unprotected(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        site.join(cf, ReroutingMethod.NS_BASED)
        origin_ip = site.origin.ip
        site.switch(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare", addresses=(origin_ip,)
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert report.hidden_count == 1
        assert report.verified_count == 1
        assert report.verified_fraction == pytest.approx(1.0)

    def test_rehosted_leaver_is_hidden_unverified(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        old_origin = site.origin.ip
        site.leave(informed=True, rehost=True)
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare", addresses=(old_origin,)
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert report.hidden_count == 1
        assert report.verified_count == 0

    def test_dead_site_record_unverifiable(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        old_origin = site.origin.ip
        site.leave(informed=True, die=True)
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare", addresses=(old_origin,)
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert report.hidden_count == 1
        [hidden] = report.hidden
        assert hidden.reason == "no-public-resolution"

    def test_stage_counters_sum(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        records = [
            RetrievedRecord(str(site.www), "cloudflare", (cf.edges[0].ip,)),
            RetrievedRecord(str(site.www), "cloudflare", (site.origin.ip,)),
        ]
        report = _pipeline(world).run(records, "cloudflare", week=0)
        assert report.retrieved == 2
        assert report.dropped_ip_filter + report.dropped_a_filter + report.hidden_count == 2


class TestDuplicateAddressDedup:
    """Regression: a provider answering with a repeated address must not
    inflate stage counters or emit duplicate hidden records."""

    def test_duplicates_counted_once(self, world):
        site = _unprotected(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        site.join(cf, ReroutingMethod.NS_BASED)
        origin_ip = site.origin.ip
        site.switch(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare",
            addresses=(origin_ip, origin_ip, origin_ip),
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert report.retrieved == 1
        assert report.hidden_count == 1
        pairs = [(r.www, r.address) for r in report.hidden]
        assert len(set(pairs)) == len(pairs)

    def test_mixed_duplicates_across_stages(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare",
            addresses=(edge_ip, edge_ip, IPv4Address("198.51.100.201")),
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert report.retrieved == 2
        assert report.dropped_ip_filter == 1
        assert report.hidden_count == 1

    def test_dedup_preserves_first_seen_order(self, world):
        site = _unprotected(world)
        first = IPv4Address("198.51.100.202")
        second = IPv4Address("198.51.100.201")
        record = RetrievedRecord(
            www=str(site.www), provider="cloudflare",
            addresses=(first, second, first, second),
        )
        report = _pipeline(world).run([record], "cloudflare", week=0)
        assert [r.address for r in report.hidden] == [first, second]


class TestNameserverHarvest:
    def test_harvests_cloudflare_ns_names(self, world):
        customers = [
            s for s in world.population
            if s.provider is not None and s.provider.name == "cloudflare"
            and s.rerouting is ReroutingMethod.NS_BASED
        ]
        assert customers, "need at least one NS customer"
        collector = collector_for(world)
        snapshot = collector.collect([str(s.www) for s in customers], day=0)
        harvest = NameserverHarvest()
        harvest.ingest([snapshot])
        assert len(harvest) >= 2
        assert all("ns.cloudflare" in str(h) for h in harvest.hostnames)

    def test_ignores_other_nameservers(self, world):
        site = _unprotected(world)
        collector = collector_for(world)
        snapshot = collector.collect([str(site.www)], day=0)
        harvest = NameserverHarvest()
        harvest.ingest([snapshot])
        assert len(harvest) == 0

    def test_resolve_addresses(self, world):
        customers = [
            s for s in world.population
            if s.provider is not None and s.provider.name == "cloudflare"
            and s.rerouting is ReroutingMethod.NS_BASED
        ]
        collector = collector_for(world)
        snapshot = collector.collect([str(s.www) for s in customers], day=0)
        harvest = NameserverHarvest()
        harvest.ingest([snapshot])
        ips = harvest.resolve_addresses(world.make_resolver())
        assert len(ips) == len(harvest)


class TestCloudflareScanner:
    def _scanner(self, world):
        cf = world.provider("cloudflare")
        ns_ips = cf.customer_fleet.all_addresses()[:5]
        clients = [world.dns_client(r) for r in ("oregon", "london", "tokyo")]
        return CloudflareScanner(ns_ips, clients)

    def test_scan_returns_records_for_known_sites(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        scanner = self._scanner(world)
        hostnames = [str(s.www) for s in world.population]
        retrieved = scanner.scan(hostnames)
        assert any(r.www == str(site.www) for r in retrieved)

    def test_non_customers_ignored(self, world):
        scanner = self._scanner(world)
        site = _unprotected(world)
        retrieved = scanner.scan([str(site.www)])
        assert retrieved == []
        assert scanner.queries_ignored == 1

    def test_needs_nameservers_and_clients(self, world):
        with pytest.raises(ValueError):
            CloudflareScanner([], [world.dns_client()])
        with pytest.raises(ValueError):
            CloudflareScanner(["10.0.0.1"], [])

    def test_terminated_customer_scanned_to_origin(self, world):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        origin_ip = site.origin.ip
        site.join(cf, ReroutingMethod.NS_BASED)
        site.leave(informed=True)
        retrieved = self._scanner(world).scan([str(site.www)])
        assert len(retrieved) == 1
        assert retrieved[0].addresses == (origin_ip,)


class _RecordingClient:
    """Stub vantage client recording which nameserver it was told to query."""

    def __init__(self):
        self.queried = []

    def query(self, server_ip, name, rtype):
        self.queried.append(IPv4Address(server_ip))
        return None


class TestScannerPairingDecorrelation:
    """Regression: when the fleet size divides evenly by the vantage
    count, the old aligned ``index % len`` strides locked each vantage
    point to a fixed nameserver subset (2 of 10 with 5 clients)."""

    @staticmethod
    def _scan(seed, clients=5, nameservers=10, hostnames=100):
        ns_ips = [f"10.9.0.{i + 1}" for i in range(nameservers)]
        vantages = [_RecordingClient() for _ in range(clients)]
        scanner = CloudflareScanner(ns_ips, vantages, rng=SeededRng(seed))
        scanner.scan([f"site{i}.test" for i in range(hostnames)])
        return vantages

    def test_each_vantage_reaches_beyond_aligned_subset(self):
        for vantage in self._scan(seed=99):
            assert len(vantage.queried) == 20  # rotation intact: 100 / 5
            # The old stride gave each vantage exactly 2 distinct
            # nameservers here; independent choice spreads further.
            assert len(set(vantage.queried)) > 2

    def test_pairing_deterministic_for_equal_rng(self):
        first = [v.queried for v in self._scan(seed=7)]
        second = [v.queried for v in self._scan(seed=7)]
        assert first == second

    def test_default_rng_is_deterministic(self):
        ns_ips = [f"10.9.0.{i + 1}" for i in range(4)]
        runs = []
        for _ in range(2):
            vantage = _RecordingClient()
            CloudflareScanner(ns_ips, [vantage]).scan(
                [f"site{i}.test" for i in range(12)]
            )
            runs.append(vantage.queried)
        assert runs[0] == runs[1]


class TestIncapsulaScanner:
    def _with_incap_customer(self, world):
        site = _unprotected(world)
        inc = world.provider("incapsula")
        site.join(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
        return site, inc

    def _ingest(self, world, scanner, sites):
        collector = collector_for(world)
        snapshot = collector.collect([str(s.www) for s in sites], day=0)
        scanner.ingest([snapshot])

    def test_collects_canonicals_while_active(self, world):
        site, inc = self._with_incap_customer(world)
        matcher = ProviderMatcher(world.specs, world.routeviews)
        scanner = IncapsulaScanner(world.make_resolver(), matcher)
        self._ingest(world, scanner, [site])
        assert len(scanner.known_canonicals) == 1
        assert list(scanner.known_canonicals.values()) == [str(site.www)]

    def test_scan_after_leave_returns_origin(self, world):
        site, inc = self._with_incap_customer(world)
        matcher = ProviderMatcher(world.specs, world.routeviews)
        scanner = IncapsulaScanner(world.make_resolver(), matcher)
        self._ingest(world, scanner, [site])
        origin_ip = site.origin.ip
        site.leave(informed=True)
        retrieved = scanner.scan()
        assert len(retrieved) == 1
        assert retrieved[0].addresses == (origin_ip,)
        assert retrieved[0].www == str(site.www)

    def test_cname_not_collectable_after_leave(self, world):
        """§III-B: canonical names must be harvested while active."""
        site, inc = self._with_incap_customer(world)
        site.leave(informed=True)
        matcher = ProviderMatcher(world.specs, world.routeviews)
        scanner = IncapsulaScanner(world.make_resolver(), matcher)
        self._ingest(world, scanner, [site])
        assert len(scanner.known_canonicals) == 0

    def test_purged_canonical_disappears_from_scan(self, world):
        site, inc = self._with_incap_customer(world)
        matcher = ProviderMatcher(world.specs, world.routeviews)
        scanner = IncapsulaScanner(world.make_resolver(), matcher)
        self._ingest(world, scanner, [site])
        site.leave(informed=True)
        world.clock.advance_days(100)
        inc.purge_expired()
        assert scanner.scan() == []
