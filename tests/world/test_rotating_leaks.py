"""Tests for multi-homed (round-robin) origins and Table I leak records
at the world level."""

import pytest

from repro.dns.records import RecordType
from repro.dps.portal import ReroutingMethod
from repro.world import SimulatedInternet, WorldConfig


@pytest.fixture
def world(world_factory):
    return world_factory(population_size=400, seed=67, rotating_origin_fraction=0.25)


def _rotating_site(world, unprotected=True):
    for site in world.population:
        if not site.is_rotating or not site.alive or site.multicdn:
            continue
        if unprotected and site.provider is not None:
            continue
        return site
    pytest.skip("no rotating site at this seed")


def _leaky_site(world, dev=True):
    for site in world.population:
        if site.provider is not None or not site.alive or site.multicdn:
            continue
        if dev and site.has_dev_subdomain:
            return site
        if not dev and site.has_mx_leak:
            return site
    pytest.skip("no leaky site at this seed")


class TestRotatingOrigins:
    def test_pool_members_all_serve(self, world):
        site = _rotating_site(world)
        client = world.http_client()
        for ip in site.origin_pool:
            assert client.get(ip, site.www).ok

    def test_public_record_rotates_daily(self, world):
        site = _rotating_site(world)
        resolver = world.make_resolver()
        seen = set()
        for _ in range(2 * len(site.origin_pool)):
            resolver.purge_cache()
            result = resolver.resolve(site.www)
            seen.update(result.addresses)
            world.engine.run_day()
        assert len(seen) > 1
        assert seen <= set(site.origin_pool)

    def test_rotation_stops_while_protected(self, world):
        site = _rotating_site(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        resolver = world.make_resolver()
        for _ in range(3):
            world.engine.run_day()
            if site.provider is not cf:  # admin model moved it
                pytest.skip("site changed state during run")
            resolver.purge_cache()
            result = resolver.resolve(site.www)
            assert any(result.addresses[0] in p for p in cf.prefixes)

    def test_stored_record_is_hidden_but_serves(self, world):
        """The Incapsula-profile mechanism: the provider's stored origin
        is usually absent from the day's public answer, yet verifies."""
        site = _rotating_site(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        stored = cf.customer_for(site.www).origin_ip
        site.leave(informed=True)
        # Advance to a day where the rotation shows a different member.
        resolver = world.make_resolver()
        for _ in range(len(site.origin_pool) + 1):
            resolver.purge_cache()
            public = resolver.resolve(site.www).addresses
            if stored not in public:
                break
            world.engine.run_day()
        else:
            pytest.skip("rotation never moved off the stored address")
        assert world.http_client().get(stored, site.www).ok  # still serves

    def test_rehost_collapses_pool(self, world):
        site = _rotating_site(world)
        old_pool = list(site.origin_pool)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        site.leave(informed=True, rehost=True)
        assert len(site.origin_pool) == 1
        client = world.http_client()
        for old_ip in old_pool:
            assert client.get(old_ip, site.www) is None

    def test_rotation_at_join_collapses_pool(self, world):
        site = _rotating_site(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED, rotate_origin_ip=True)
        assert site.origin_pool == [site.origin.ip]
        # And a later leave/rehost cycle does not crash (regression).
        site.leave(informed=True, rehost=True)

    def test_dead_rotating_site_fully_dark(self, world):
        site = _rotating_site(world)
        pool = list(site.origin_pool)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        site.leave(informed=True, die=True)
        client = world.http_client()
        assert all(client.get(ip, site.www) is None for ip in pool)


class TestRotationRoster:
    def test_roster_is_the_sites_built_with_a_pool(self, world):
        built = [site for site in world.population if len(site.origin_pool) > 1]
        assert built
        assert world.engine.rotating == frozenset(built)

    def test_only_roster_sites_rotate(self, world, monkeypatch):
        rotated = []
        monkeypatch.setattr(
            type(world.population[0]),
            "rotate_public_address",
            lambda site, day: rotated.append(site),
        )
        world.engine.run_day()
        assert rotated == [s for s in world.population if s in world.engine.rotating]

    def test_a_collapsed_pool_stops_writing_its_zone(self, world, monkeypatch):
        site = _rotating_site(world)
        site._rotate_origin()
        zone = site.hosting.zone_of(site.apex)
        site.hosting.set_www_a(site.www, site.origin.ip)
        serial = zone.serial
        # No admin acts today, so only a rotation could touch the zone.
        monkeypatch.setattr(world.admin, "step_site", lambda *args: [])
        world.engine.run_day()
        assert site in world.engine.rotating
        assert zone.serial == serial


class TestLeakRecords:
    def test_dev_record_in_hosting_zone(self, world):
        site = _leaky_site(world, dev=True)
        result = world.make_resolver().resolve(site.apex.child(site.leak_label))
        assert result.ok
        assert site.origin.ip in result.addresses

    def test_mx_chain_resolves_to_origin(self, world):
        site = _leaky_site(world, dev=False)
        resolver = world.make_resolver()
        mx = resolver.resolve(site.apex, RecordType.MX)
        assert mx.ok
        mail_result = resolver.resolve(mx.records[0].target)
        assert site.origin.ip in mail_result.addresses

    def test_ns_join_imports_leak_records(self, world):
        site = _leaky_site(world, dev=True)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        # The dev record now lives in the provider-hosted zone and still
        # resolves to the origin — the Table I subdomain vector.
        result = world.make_resolver().resolve(site.apex.child(site.leak_label))
        assert result.ok
        assert site.origin.ip in result.addresses

    def test_rotation_updates_leak_records(self, world):
        site = _leaky_site(world, dev=True)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED, rotate_origin_ip=True)
        result = world.make_resolver().resolve(site.apex.child(site.leak_label))
        assert result.addresses == [site.origin.ip]

    def test_leak_prevalence_near_config(self, world_factory):
        world = world_factory(population_size=1500, seed=68)
        dev_rate = sum(1 for s in world.population if s.has_dev_subdomain) / 1500
        mx_rate = sum(1 for s in world.population if s.has_mx_leak) / 1500
        assert 0.10 < dev_rate < 0.21   # config 0.15
        assert 0.14 < mx_rate < 0.27    # config 0.20


class TestVerifierStrictness:
    def test_title_only_tolerates_dynamic_meta(self, world_factory):
        from repro.core.htmlverify import HtmlVerifier
        world = world_factory(population_size=300, seed=69)
        site = next(
            s for s in world.population
            if s.dynamic_meta and s.provider is None and s.alive
            and not s.multicdn and not s.firewall_inclined
        )
        cf = world.provider("cloudflare")
        origin_ip = site.origin.ip
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        strict = HtmlVerifier(world.http_client("oregon"))
        lax = HtmlVerifier(world.http_client("oregon"), strictness="title-only")
        assert not strict.verify(site.www, edge_ip, origin_ip).verified
        assert lax.verify(site.www, edge_ip, origin_ip).verified

    def test_unknown_strictness_rejected(self, world_factory):
        from repro.core.htmlverify import HtmlVerifier
        world = world_factory(population_size=50, seed=70)
        with pytest.raises(ValueError):
            HtmlVerifier(world.http_client(), strictness="anything-goes")
