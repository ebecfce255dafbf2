"""Tests for Table III status determination and Table IV behaviour
detection, using hand-built day tables plus live-world checks."""

import pytest

from repro.core.behaviors import BehaviorDetector, MultiCdnFilter
from repro.core.collector import DnsRecordCollector
from repro.core.matching import ProviderMatcher
from repro.core.status import DpsStatus, StatusDeterminer
from repro.dns.name import DomainName
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod
from repro.world.admin import BehaviorKind

from ..tables import verdict_days


@pytest.fixture
def world(world_factory):
    return world_factory(population_size=60, seed=17)


@pytest.fixture
def determiner(world):
    matcher = ProviderMatcher(world.specs, world.routeviews)
    shared = frozenset(
        ip for p in world.providers.values() for ip in p.offnet_edge_ips
    )
    return StatusDeterminer(matcher, shared)


def _observe(world, determiner, site):
    collector = DnsRecordCollector(world.make_resolver(), determiner)
    table = collector.collect([str(site.www)], day=world.clock.day)
    return table.observation(0)


def _unprotected(world):
    return next(
        s for s in world.population if s.provider is None and s.alive and not s.multicdn
    )


class TestStatusDetermination:
    def test_none_for_plain_site(self, world, determiner):
        observation = _observe(world, determiner, _unprotected(world))
        assert observation.status == DpsStatus.NONE
        assert observation.provider is None

    def test_on_for_ns_customer(self, world, determiner):
        site = _unprotected(world)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        observation = _observe(world, determiner, site)
        assert observation.status == DpsStatus.ON
        assert observation.provider == "cloudflare"
        assert observation.rerouting is ReroutingMethod.NS_BASED

    def test_on_for_cname_customer(self, world, determiner):
        site = _unprotected(world)
        site.join(world.provider("fastly"), ReroutingMethod.CNAME_BASED)
        observation = _observe(world, determiner, site)
        assert observation.status == DpsStatus.ON
        assert observation.provider == "fastly"
        assert observation.rerouting is ReroutingMethod.CNAME_BASED

    def test_off_for_paused_ns_customer(self, world, determiner):
        site = _unprotected(world)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        site.pause(day=world.clock.day, resume_on_day=None)
        observation = _observe(world, determiner, site)
        assert observation.status == DpsStatus.OFF
        assert observation.provider == "cloudflare"

    def test_off_for_paused_cname_customer(self, world, determiner):
        site = _unprotected(world)
        site.join(world.provider("incapsula"), ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS)
        site.pause(day=world.clock.day, resume_on_day=None)
        observation = _observe(world, determiner, site)
        assert observation.status == DpsStatus.OFF
        assert observation.provider == "incapsula"

    def test_a_based_customer_is_on_with_a_rerouting(self, world, determiner):
        site = _unprotected(world)
        site.join(world.provider("dosarrest"), ReroutingMethod.A_BASED)
        observation = _observe(world, determiner, site)
        assert observation.status == DpsStatus.ON
        assert observation.rerouting is ReroutingMethod.A_BASED

    def test_after_leave_is_none(self, world, determiner):
        site = _unprotected(world)
        site.join(world.provider("cloudflare"), ReroutingMethod.NS_BASED)
        site.leave()
        assert _observe(world, determiner, site).status == DpsStatus.NONE

    def test_shared_edge_correction(self, world, determiner):
        """Footnote 6: off-net Akamai edge + known-IP set → ON."""
        akamai = world.provider("akamai")
        if not akamai.offnet_edge_ips:
            pytest.skip("no off-net edges at this configuration")
        status, provider, _ = determiner.classify(
            (akamai.offnet_edge_ips[0],), (DomainName("site.edgekey.net"),), ()
        )
        assert status == DpsStatus.ON
        assert provider == "akamai"

    def test_shared_edge_without_correction_reads_off(self, world):
        matcher = ProviderMatcher(world.specs, world.routeviews)
        naive = StatusDeterminer(matcher)  # no shared-IP knowledge
        akamai = world.provider("akamai")
        if not akamai.offnet_edge_ips:
            pytest.skip("no off-net edges at this configuration")
        status, _, _ = naive.classify(
            (akamai.offnet_edge_ips[0],), (DomainName("site.edgekey.net"),), ()
        )
        assert status == DpsStatus.OFF


class TestBehaviorDetector:
    @pytest.mark.parametrize(
        "prev,curr,expected",
        [
            ((DpsStatus.NONE, None), (DpsStatus.ON, "cloudflare"), [BehaviorKind.JOIN]),
            ((DpsStatus.ON, "cloudflare"), (DpsStatus.NONE, None), [BehaviorKind.LEAVE]),
            ((DpsStatus.OFF, "cloudflare"), (DpsStatus.NONE, None), [BehaviorKind.LEAVE]),
            ((DpsStatus.ON, "cloudflare"), (DpsStatus.OFF, "cloudflare"), [BehaviorKind.PAUSE]),
            ((DpsStatus.OFF, "cloudflare"), (DpsStatus.ON, "cloudflare"), [BehaviorKind.RESUME]),
            ((DpsStatus.ON, "cloudflare"), (DpsStatus.ON, "incapsula"), [BehaviorKind.SWITCH]),
            ((DpsStatus.OFF, "cloudflare"), (DpsStatus.ON, "incapsula"), [BehaviorKind.SWITCH]),
            ((DpsStatus.NONE, None), (DpsStatus.OFF, "cloudflare"),
             [BehaviorKind.JOIN, BehaviorKind.PAUSE]),
            ((DpsStatus.ON, "cloudflare"), (DpsStatus.OFF, "incapsula"),
             [BehaviorKind.SWITCH, BehaviorKind.PAUSE]),
            ((DpsStatus.ON, "cloudflare"), (DpsStatus.ON, "cloudflare"), []),
            ((DpsStatus.NONE, None), (DpsStatus.NONE, None), []),
        ],
    )
    def test_transitions(self, prev, curr, expected):
        detector = BehaviorDetector()
        behaviors = detector.diff_series(
            verdict_days({"www.x.com": prev}, {"www.x.com": curr})
        )
        assert [b.kind for b in behaviors] == expected

    def test_providers_recorded(self):
        detector = BehaviorDetector()
        [behavior] = detector.diff_series(
            verdict_days(
                {"w": (DpsStatus.ON, "cloudflare")},
                {"w": (DpsStatus.ON, "incapsula")},
            ),
            first_day=4,
        )
        assert behavior.from_provider == "cloudflare"
        assert behavior.to_provider == "incapsula"
        assert behavior.day == 4

    def test_excluded_sites_skipped(self):
        detector = BehaviorDetector(excluded=["w"])
        behaviors = detector.diff_series(
            verdict_days({"w": (DpsStatus.NONE, None)}, {"w": (DpsStatus.ON, "fastly")})
        )
        assert behaviors == []

    def test_new_site_in_current_day_ignored(self):
        detector = BehaviorDetector()
        behaviors = detector.diff_series(
            verdict_days({}, {"w": (DpsStatus.ON, "fastly")})
        )
        assert behaviors == []

    def test_diff_series_day_labels(self):
        detector = BehaviorDetector()
        days = verdict_days(
            {"w": (DpsStatus.NONE, None)},
            {"w": (DpsStatus.ON, "fastly")},
            {"w": (DpsStatus.NONE, None)},
        )
        behaviors = detector.diff_series(days, first_day=10)
        assert [(b.kind, b.day) for b in behaviors] == [
            (BehaviorKind.JOIN, 10),
            (BehaviorKind.LEAVE, 11),
        ]

    def test_daily_counts_and_averages(self):
        detector = BehaviorDetector()
        days = verdict_days(
            {"w": (DpsStatus.NONE, None)},
            {"w": (DpsStatus.ON, "fastly")},
            {"w": (DpsStatus.ON, "fastly")},
        )
        behaviors = detector.diff_series(days, first_day=1)
        counts = BehaviorDetector.daily_counts(behaviors)
        assert counts[1][BehaviorKind.JOIN] == 1
        averages = BehaviorDetector.average_per_day(behaviors, num_days=2)
        assert averages[BehaviorKind.JOIN] == pytest.approx(0.5)


class TestMultiCdnFilter:
    def _days(self, providers):
        return verdict_days(
            *({"w": (DpsStatus.ON, provider)} for provider in providers)
        )

    def test_flags_frequent_flippers(self):
        days = self._days(["fastly", "akamai", "fastly", "cloudfront", "akamai"])
        assert MultiCdnFilter(flip_threshold=3).flagged(days) == {"w"}

    def test_single_switch_not_flagged(self):
        days = self._days(["fastly", "akamai", "akamai", "akamai", "akamai"])
        assert MultiCdnFilter(flip_threshold=3).flagged(days) == set()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            MultiCdnFilter(flip_threshold=0)

    def test_live_multicdn_sites_get_flagged(self, world_factory):
        world = world_factory(population_size=1200, seed=19, multicdn_fraction=0.02)
        flagged_sites = [s for s in world.population if s.multicdn]
        if not flagged_sites:
            pytest.skip("no multicdn site at this seed")
        matcher = ProviderMatcher(world.specs, world.routeviews)
        determiner = StatusDeterminer(matcher)
        collector = DnsRecordCollector(world.make_resolver(), determiner)
        hostnames = [str(s.www) for s in flagged_sites]
        days = []
        for _ in range(8):
            days.append(collector.collect(hostnames, world.clock.day))
            world.engine.run_day()
        flagged = MultiCdnFilter(flip_threshold=3).flagged(days)
        assert flagged  # at least one multi-CDN site detected
