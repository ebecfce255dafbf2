"""Tests for the admin behaviour model and the population generator."""

import pytest

from repro.dps.catalog import provider_spec
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod
from repro.rng import SeededRng
from repro.world import SimulatedInternet, WorldConfig
from repro.world.admin import BehaviorKind
from repro.world.config import BehaviorRates


@pytest.fixture(scope="module")
def world():
    return SimulatedInternet(WorldConfig(population_size=1500, seed=9))


class TestPopulation:
    def test_population_size(self, world):
        assert len(world.population) == 1500

    def test_ranks_sequential(self, world):
        assert [s.rank for s in world.population] == list(range(1, 1501))

    def test_domains_unique(self, world):
        apexes = {str(s.apex) for s in world.population}
        assert len(apexes) == 1500

    def test_adoption_rate_near_target(self, world):
        rate = len(world.dps_customers()) / len(world.population)
        assert 0.10 < rate < 0.20  # target 14.85%

    def test_top_sites_adopt_more(self, world):
        top = [s for s in world.population if s.rank <= 15]
        rest = [s for s in world.population if s.rank > 15]
        top_rate = sum(1 for s in top if s.provider) / len(top)
        rest_rate = sum(1 for s in rest if s.provider) / len(rest)
        assert top_rate > rest_rate

    def test_cloudflare_dominates_adoption(self, world):
        adoption = world.adoption_by_provider()
        assert adoption.get("cloudflare", 0) == max(adoption.values())

    def test_every_site_resolves_or_is_multicdn(self, world):
        resolver = world.make_resolver()
        for site in world.population[:40]:
            result = resolver.resolve(site.www)
            assert result.ok, str(site.www)

    def test_origin_servers_deployed(self, world):
        client = world.http_client()
        site = next(s for s in world.population if s.provider is None and s.alive)
        assert client.get(site.origin.ip, site.www).ok

    def test_dynamic_meta_fraction_reasonable(self, world):
        fraction = sum(1 for s in world.population if s.dynamic_meta) / 1500
        assert 0.04 < fraction < 0.14  # target 8%

    def test_multicdn_sites_enrolled(self, world):
        flagged = [s for s in world.population if s.multicdn]
        if world.multicdn is not None:
            for site in flagged:
                assert world.multicdn.is_customer(site.www)


class TestEnrollmentChoices:
    def test_cloudflare_cname_gets_paid_plan(self, world):
        spec = provider_spec("cloudflare")
        for _ in range(200):
            rerouting, plan = world.admin.choose_enrollment(spec)
            if rerouting is ReroutingMethod.CNAME_BASED:
                assert plan in (PlanTier.BUSINESS, PlanTier.ENTERPRISE)

    def test_cloudflare_ns_dominates(self, world):
        spec = provider_spec("cloudflare")
        choices = [world.admin.choose_enrollment(spec)[0] for _ in range(400)]
        ns_share = sum(1 for c in choices if c is ReroutingMethod.NS_BASED) / len(choices)
        assert 0.80 < ns_share < 0.97  # target 89.95%

    def test_incapsula_never_free(self, world):
        spec = provider_spec("incapsula")
        for _ in range(100):
            _, plan = world.admin.choose_enrollment(spec)
            assert plan is not PlanTier.FREE

    def test_dosarrest_always_a_based(self, world):
        spec = provider_spec("dosarrest")
        for _ in range(50):
            rerouting, _ = world.admin.choose_enrollment(spec)
            assert rerouting is ReroutingMethod.A_BASED

    def test_choose_provider_excludes(self, world):
        for _ in range(50):
            spec = world.admin.choose_provider(exclude="cloudflare")
            assert spec.name != "cloudflare"

    def test_rotate_on_join_tracks_table5(self, world):
        spec = provider_spec("cdn77")  # 93.8% unchanged → rare rotation
        rotations = sum(world.admin.rotate_on_join(spec) for _ in range(500))
        assert rotations < 80


class TestPauseDurations:
    def test_distribution_shape(self, world):
        durations = []
        nones = 0
        for _ in range(2000):
            d = world.admin.draw_pause_duration("cloudflare")
            if d is None:
                nones += 1
            else:
                durations.append(d)
        # Never-resume fraction near the configured 22%.
        assert 0.15 < nones / 2000 < 0.30
        # Just under half of the completed pauses are one day.
        one_day = sum(1 for d in durations if d == 1) / len(durations)
        assert 0.38 < one_day < 0.55
        # ~30% exceed 5 days (Fig. 5).
        over5 = sum(1 for d in durations if d > 5) / len(durations)
        assert 0.20 < over5 < 0.42

    def test_incapsula_shorter_pauses(self, world):
        def mean_for(provider):
            draws = [
                world.admin.draw_pause_duration(provider) for _ in range(3000)
            ]
            real = [d for d in draws if d is not None]
            return sum(real) / len(real)

        assert mean_for("incapsula") < mean_for("cloudflare")


class TestDailyStep:
    def test_step_site_emits_ground_truth_events(self, world_factory):
        world = world_factory(population_size=800, seed=21)
        events = world.engine.run_days(20)
        kinds = {event.kind for event in events}
        assert BehaviorKind.JOIN in kinds or BehaviorKind.LEAVE in kinds

    def test_events_reference_real_sites(self, world_factory):
        world = world_factory(population_size=500, seed=22)
        events = world.engine.run_days(15)
        for event in events:
            assert world.website(event.website) is not None

    def test_paused_sites_resume_on_schedule(self, world_factory):
        world = world_factory(population_size=300, seed=23)
        site = next(
            s for s in world.population
            if s.provider is not None and s.provider.name == "cloudflare"
        )
        site.pause(day=world.clock.day, resume_on_day=world.clock.day + 2)
        events = world.engine.run_days(4)
        resumes = [
            e for e in events
            if e.kind is BehaviorKind.RESUME and e.website == str(site.www)
        ]
        assert len(resumes) == 1

    def test_dead_sites_take_no_actions(self, world_factory):
        world = world_factory(population_size=300, seed=24)
        site = next(s for s in world.population if s.provider is not None)
        www = str(site.www)
        site.leave(die=True)
        events = world.engine.run_days(10)
        assert not [e for e in events if e.website == www]


def _predicted_growth_factor(days: int) -> float:
    """Adoption after ``days`` over adoption today, integrating the
    planted daily net inflow join·(1−adopted) − leave·adopted linearly."""
    rates = BehaviorRates()
    adopted = WorldConfig().overall_adoption
    net_daily = rates.join_daily * (1 - adopted) - rates.leave_daily * adopted
    return (adopted + net_daily * days) / adopted


class TestBehaviorRates:
    def test_net_inflow_matches_the_papers_growth(self):
        assert _predicted_growth_factor(0) == pytest.approx(1.0)
        # The paper's own +1.17% over its six weeks.
        assert 1.005 < _predicted_growth_factor(42) < 1.03
        # Jonker et al. (§VII): 1.24x over ~1.5 years.
        assert 1.10 < _predicted_growth_factor(547) < 1.35

    def test_world_adoption_follows_the_planted_inflow(self):
        world = SimulatedInternet(WorldConfig(population_size=2500, seed=113))
        before = len(world.dps_customers())
        world.engine.run_days(112)
        measured = len(world.dps_customers()) / before
        # Over 16 weeks at n=2500 the drift is small next to the Poisson
        # noise on ~370 adopters: the direction must not invert badly,
        # and the factor stays in a generous band around the closed form.
        assert measured > 0.93
        assert abs(measured - _predicted_growth_factor(112)) < 0.12
