"""Tests for the attacker model (Fig. 1) and the countermeasures (§VI-B)."""

import pytest

from repro.core.attacker import DdosSimulator, ResidualResolutionAttacker
from repro.core.countermeasures import (
    leave_with_fake_a,
    silent_termination,
    track_and_compare,
)
from repro.core.matching import ProviderMatcher
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod


@pytest.fixture
def world(world_factory):
    return world_factory(population_size=60, seed=43)


@pytest.fixture
def matcher(world):
    return ProviderMatcher(world.specs, world.routeviews)


def _unprotected(world):
    return next(
        s for s in world.population
        if s.provider is None and s.alive and not s.multicdn
    )


def _switch_away(world, site):
    """Join Cloudflare, then switch to Incapsula; returns the origin IP."""
    cf, inc = world.provider("cloudflare"), world.provider("incapsula")
    site.join(cf, ReroutingMethod.NS_BASED)
    origin_ip = site.origin.ip
    site.switch(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS, informed=True)
    return origin_ip


class TestDiscovery:
    def test_ns_probe_discovers_origin(self, world, matcher):
        site = _unprotected(world)
        origin_ip = _switch_away(world, site)
        cf = world.provider("cloudflare")
        attacker = ResidualResolutionAttacker(world.dns_client("london"), matcher)
        result = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        assert result.succeeded
        assert origin_ip in result.candidate_origins

    def test_probe_filters_edge_answers(self, world, matcher):
        # Uninformed departure: provider still answers with its own edge
        # address — the attacker learns nothing.
        site = _unprotected(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        site.join(cf, ReroutingMethod.NS_BASED)
        site.switch(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS, informed=False)
        attacker = ResidualResolutionAttacker(world.dns_client("london"), matcher)
        result = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        assert not result.succeeded

    def test_probe_respects_max_attempts(self, world, matcher):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        result = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses(), max_attempts=3
        )
        assert result.queried_nameservers == 3

    def test_canonical_probe_after_incapsula_leave(self, world, matcher):
        site = _unprotected(world)
        inc = world.provider("incapsula")
        instructions = inc.onboard(site.www, site.origin.ip, ReroutingMethod.CNAME_BASED)
        site.hosting.set_www_cname(site.www, instructions.cname)
        site.provider = inc
        site.rerouting = ReroutingMethod.CNAME_BASED
        from repro.world.website import GroundTruthStatus
        site.status = GroundTruthStatus.ON
        origin_ip = site.origin.ip
        site.leave(informed=True)
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        result = attacker.probe_canonical(
            site.www, instructions.cname, world.make_resolver()
        )
        assert result.succeeded
        assert origin_ip in result.candidate_origins


class TestDdosSimulator:
    def test_attack_on_edge_is_absorbed(self, world, matcher):
        """Fig. 1a: malicious traffic rerouted and scrubbed."""
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        simulator = DdosSimulator(world.providers, matcher)
        outcome = simulator.attack(edge_ip, attack_gbps=800.0)
        assert outcome.path == "scrubbed"
        assert not outcome.attack_succeeded
        assert outcome.origin_availability > 0.9

    def test_attack_on_residual_origin_succeeds(self, world, matcher):
        """Fig. 1b: the discovered origin is attacked directly and the
        new DPS never sees the traffic."""
        site = _unprotected(world)
        origin_ip = _switch_away(world, site)
        simulator = DdosSimulator(world.providers, matcher)
        outcome = simulator.attack(origin_ip, attack_gbps=800.0)
        assert outcome.path == "direct"
        assert outcome.attack_succeeded
        assert outcome.origin_saturated

    def test_full_kill_chain(self, world, matcher):
        """Discovery → direct attack, end to end."""
        site = _unprotected(world)
        _switch_away(world, site)
        cf = world.provider("cloudflare")
        attacker = ResidualResolutionAttacker(world.dns_client("sydney"), matcher)
        discovery = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        assert discovery.succeeded
        simulator = DdosSimulator(world.providers, matcher)
        outcome = simulator.attack(discovery.candidate_origins[0], attack_gbps=500.0)
        assert outcome.attack_succeeded

    def test_overwhelming_attack_saturates_even_scrubbers(self, world, matcher):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        site.join(cf, ReroutingMethod.NS_BASED)
        edge_ip = cf.customer_for(site.www).edge_ip
        simulator = DdosSimulator(world.providers, matcher)
        total_capacity = cf.scrubbing.total_capacity_gbps
        outcome = simulator.attack(edge_ip, attack_gbps=total_capacity * 20)
        assert outcome.origin_availability < 1.0


class TestProviderCountermeasures:
    def test_silent_termination_blocks_discovery(self, world, matcher):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        silent_termination(cf)
        _switch_away(world, site)
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        result = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        assert not result.succeeded

    def test_track_and_compare_blocks_moved_customer(self, world, matcher):
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        track_and_compare(cf)
        _switch_away(world, site)  # public resolution now → Incapsula edge
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        result = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        assert not result.succeeded

    def test_track_and_compare_preserves_continuity_for_unmoved(self, world):
        """The §VI-B nuance: a leaver still serving from the same origin
        keeps getting answers (service continuity) — no new exposure,
        because the address is public anyway."""
        site = _unprotected(world)
        cf = world.provider("cloudflare")
        track_and_compare(cf)
        site.join(cf, ReroutingMethod.NS_BASED)
        origin_ip = site.origin.ip
        site.leave(informed=True)  # same origin, publicly visible
        client = world.dns_client()
        response = client.query(cf.customer_fleet.all_addresses()[0], site.www)
        assert response.is_answer
        assert response.answers[0].address == origin_ip

    def test_policy_swap_returns_previous(self, world):
        cf = world.provider("cloudflare")
        previous = silent_termination(cf)
        assert previous.name == "answer-with-origin"


class TestCustomerCountermeasures:
    def test_fake_a_record_poisons_residual_answer(self, world, matcher):
        site = _unprotected(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        site.join(cf, ReroutingMethod.NS_BASED)
        real_origin = site.origin.ip
        decoy = world.vantage_point("tokyo").source_ip  # any non-origin IP
        # Switch manually with the decoy planted first.
        leave_with_fake_a(site, decoy)
        site.join(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        result = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        # The provider leaks only the decoy, never the real origin.
        assert real_origin not in result.candidate_origins
        if result.candidate_origins:
            assert result.candidate_origins[0] == decoy

    def test_fake_a_requires_membership(self, world):
        site = _unprotected(world)
        with pytest.raises(ValueError):
            leave_with_fake_a(site, "198.18.0.1")

    def test_switch_then_rotate_kills_residual_pointer(self, world, matcher):
        site = _unprotected(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        site.join(cf, ReroutingMethod.NS_BASED)
        old_origin = site.origin.ip
        site.switch(
            inc, ReroutingMethod.CNAME_BASED, plan=PlanTier.BUSINESS,
            rotate_origin_ip=True,
        )
        assert site.origin.ip != old_origin
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        result = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        # Residual answer points at the dead old address; a direct attack
        # there hits nothing.
        assert site.origin.ip not in result.candidate_origins
        if result.candidate_origins:
            stale = result.candidate_origins[0]
            assert stale == old_origin
            assert world.http_client().get(stale, site.www) is None
