"""Property-based tests over whole simulated worlds.

These sample seeds and small populations and assert global invariants
that must hold for *any* world the generator can produce.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.collector import DnsRecordCollector
from repro.core.matching import ProviderMatcher
from repro.core.status import DpsStatus, StatusDeterminer
from repro.world import SimulatedInternet, WorldConfig
from repro.world.website import GroundTruthStatus

_world_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build(seed: int) -> SimulatedInternet:
    return SimulatedInternet(WorldConfig(population_size=150, seed=seed))


class TestWorldInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @_world_settings
    def test_every_live_site_resolves_consistently(self, seed):
        """Public resolution of every live, non-multiCDN site agrees
        with its ground truth: ON → provider edge; OFF/NONE → an origin
        pool address."""
        world = _build(seed)
        resolver = world.make_resolver()
        for site in world.population[:60]:
            if not site.alive or site.multicdn:
                continue
            result = resolver.resolve(site.www)
            assert result.ok, str(site.www)
            address = result.addresses[0]
            if site.status is GroundTruthStatus.ON:
                assert site.provider is not None
                assert any(address in p for p in site.provider.prefixes) or (
                    address in site.provider.offnet_edge_ips
                )
            else:
                assert address in site.origin_pool

    @given(st.integers(min_value=0, max_value=10_000))
    @_world_settings
    def test_measurement_agrees_with_ground_truth(self, seed):
        """Table III inference is correct for every site, any seed."""
        world = _build(seed)
        matcher = ProviderMatcher(world.specs, world.routeviews)
        shared = frozenset(
            ip for p in world.providers.values() for ip in p.offnet_edge_ips
        )
        determiner = StatusDeterminer(matcher, shared)
        collector = DnsRecordCollector(world.make_resolver(), determiner)
        sites = [s for s in world.population[:50] if s.alive and not s.multicdn]
        table = collector.collect([str(s.www) for s in sites], day=0)
        for site, observation in zip(sites, table.observations()):
            assert observation.status == site.status.value, str(site.www)
            if site.provider is not None:
                assert observation.provider == site.provider.name

    @given(st.integers(min_value=0, max_value=10_000))
    @_world_settings
    def test_dynamics_preserve_invariants(self, seed):
        """After running dynamics, ground-truth state is still coherent:
        every ON site is an active customer of its provider, every OFF
        site a paused one, and dead sites have no provider."""
        world = _build(seed)
        world.engine.run_days(25)
        for site in world.population:
            if site.multicdn:
                continue
            if not site.alive:
                assert site.provider is None
                continue
            if site.provider is None:
                assert site.status is GroundTruthStatus.NONE
                continue
            record = site.provider.customer_for(site.www)
            assert record is not None, str(site.www)
            if site.status is GroundTruthStatus.ON:
                assert record.is_active
            else:
                from repro.dps.portal import CustomerStatus
                assert record.status is CustomerStatus.PAUSED
