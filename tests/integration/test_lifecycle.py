"""End-to-end lifecycle tests spanning every subsystem.

These replay the paper's narrative against the simulated Internet: a
website joins a DPS, pauses, resumes, switches providers, and an
attacker exploits residual resolution to bypass the new provider —
then countermeasures shut the attack down.
"""

import pytest

from repro.core.attacker import DdosSimulator, ResidualResolutionAttacker
from repro.core.collector import DnsRecordCollector
from repro.core.countermeasures import track_and_compare
from repro.core.matching import ProviderMatcher
from repro.core.status import DpsStatus, StatusDeterminer
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod
from repro.world import SimulatedInternet, WorldConfig


@pytest.fixture
def world():
    return SimulatedInternet(WorldConfig(population_size=100, seed=53))


def _site(world):
    return next(
        s for s in world.population
        if s.provider is None and s.alive and not s.multicdn
        and not s.dynamic_meta and not s.firewall_inclined
    )


def _observe(world, site):
    matcher = ProviderMatcher(world.specs, world.routeviews)
    determiner = StatusDeterminer(matcher)
    collector = DnsRecordCollector(world.make_resolver(), determiner)
    return collector.collect([str(site.www)], day=world.clock.day).observation(0)


class TestFullLifecycleThroughMeasurement:
    def test_status_tracks_every_transition(self, world):
        site = _site(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")

        assert _observe(world, site).status == DpsStatus.NONE

        site.join(cf, ReroutingMethod.NS_BASED)
        observation = _observe(world, site)
        assert (observation.status, observation.provider) == (DpsStatus.ON, "cloudflare")

        site.pause(day=world.clock.day, resume_on_day=None)
        observation = _observe(world, site)
        assert (observation.status, observation.provider) == (DpsStatus.OFF, "cloudflare")

        site.resume()
        assert _observe(world, site).status == DpsStatus.ON

        site.switch(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
        observation = _observe(world, site)
        assert (observation.status, observation.provider) == (DpsStatus.ON, "incapsula")

        site.leave()
        assert _observe(world, site).status == DpsStatus.NONE

    def test_attack_fails_before_and_succeeds_after_residual_leak(self, world):
        """The paper's Fig. 1 in one test.

        While the site is protected, the attacker's resolution gives an
        edge address and the flood is scrubbed.  After the switch, the
        residual record at the previous provider leaks the origin, and
        the same flood aimed there kills the site despite the new DPS.
        """
        site = _site(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        matcher = ProviderMatcher(world.specs, world.routeviews)
        simulator = DdosSimulator(world.providers, matcher)

        site.join(cf, ReroutingMethod.NS_BASED)
        public = world.make_resolver().resolve(site.www)
        frontal = simulator.attack(public.addresses[0], attack_gbps=900.0)
        assert frontal.path == "scrubbed"
        assert not frontal.attack_succeeded

        site.switch(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS, informed=True)
        attacker = ResidualResolutionAttacker(world.dns_client("singapore"), matcher)
        discovery = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        assert discovery.succeeded

        bypass = simulator.attack(discovery.candidate_origins[0], attack_gbps=900.0)
        assert bypass.path == "direct"
        assert bypass.attack_succeeded

    def test_track_and_compare_closes_the_hole_end_to_end(self, world):
        site = _site(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        track_and_compare(cf)
        matcher = ProviderMatcher(world.specs, world.routeviews)

        site.join(cf, ReroutingMethod.NS_BASED)
        site.switch(inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS, informed=True)
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        discovery = attacker.probe_nameservers(
            site.www, cf.customer_fleet.all_addresses()[:10]
        )
        assert not discovery.succeeded

    def test_purge_eventually_closes_the_hole(self, world):
        site = _site(world)
        cf, inc = world.provider("cloudflare"), world.provider("incapsula")
        matcher = ProviderMatcher(world.specs, world.routeviews)
        site.join(cf, ReroutingMethod.NS_BASED, plan=PlanTier.FREE)
        site.switch(
            inc, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS, informed=True
        )
        attacker = ResidualResolutionAttacker(world.dns_client(), matcher)
        ns_ips = cf.customer_fleet.all_addresses()[:10]
        assert attacker.probe_nameservers(site.www, ns_ips).succeeded
        world.engine.run_days(29)  # past the free-plan horizon
        assert not attacker.probe_nameservers(site.www, ns_ips).succeeded

    def test_paused_site_attackable_without_residual_tricks(self, world):
        """PAUSE (§IV-C-1): the exposure is in *public* DNS."""
        site = _site(world)
        cf = world.provider("cloudflare")
        matcher = ProviderMatcher(world.specs, world.routeviews)
        site.join(cf, ReroutingMethod.NS_BASED)
        site.pause(day=world.clock.day, resume_on_day=None)
        public = world.make_resolver().resolve(site.www)
        assert public.addresses == [site.origin.ip]
        simulator = DdosSimulator(world.providers, matcher)
        outcome = simulator.attack(public.addresses[0], attack_gbps=500.0)
        assert outcome.attack_succeeded
