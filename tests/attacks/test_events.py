"""Tests for attack events and the pure wave-verdict functions."""

import pytest

from repro.attacks.events import (
    AttackEvent,
    AttackKind,
    TargetKind,
    block_of,
    choose_wave_enrollment,
    wave_triggered,
    weighted_pick,
)
from repro.dps.catalog import PAPER_PROVIDERS
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod
from repro.net.ipaddr import IPv4Address
from repro.rng import hash_fraction


def make_event(**overrides):
    fields = dict(
        event_id=3,
        kind=AttackKind.VOLUMETRIC,
        target_kind=TargetKind.SITE_ORIGIN,
        target="www.victim-000001.sim",
        start_day=30,
        duration_days=3,
        magnitude_gbps=40.0,
    )
    fields.update(overrides)
    return AttackEvent(**fields)


class TestAttackEvent:
    def test_active_window_is_half_open(self):
        event = make_event(start_day=30, duration_days=3)
        assert not event.active_on(29)
        assert event.active_on(30)
        assert event.active_on(32)
        assert not event.active_on(33)

    def test_as_dict_round_trips_to_json_primitives(self):
        payload = make_event().as_dict()
        assert payload == {
            "event_id": 3,
            "kind": "volumetric",
            "target_kind": "site-origin",
            "target": "www.victim-000001.sim",
            "start_day": 30,
            "duration_days": 3,
            "magnitude_gbps": 40.0,
            "overwhelms": False,
        }

    def test_events_are_frozen(self):
        with pytest.raises(AttributeError):
            make_event().start_day = 99


class TestBlockOf:
    def test_masks_to_slash_24(self):
        assert block_of(IPv4Address("203.0.113.77")) == "203.0.113.0/24"
        assert block_of("198.51.100.255") == "198.51.100.0/24"

    def test_colocated_addresses_share_a_block(self):
        assert block_of("10.9.8.1") == block_of("10.9.8.254")
        assert block_of("10.9.8.1") != block_of("10.9.9.1")


class TestWaveVerdicts:
    def test_hash_fraction_is_deterministic_and_bounded(self):
        draws = [hash_fraction("label", 2018, 1, day, "www.x.sim")
                 for day in range(200)]
        assert draws == [hash_fraction("label", 2018, 1, day, "www.x.sim")
                        for day in range(200)]
        assert all(0.0 <= draw < 1.0 for draw in draws)

    def test_wave_triggered_zero_rate_never_fires(self):
        assert not any(
            wave_triggered("attack-join", 2018, 1, day, "www.x.sim", 0.0)
            for day in range(500)
        )

    def test_wave_triggered_tracks_the_rate(self):
        fired = sum(
            wave_triggered("attack-join", 2018, 1, 30, f"www.site-{i}.sim", 0.45)
            for i in range(2000)
        )
        assert 0.40 < fired / 2000 < 0.50

    def test_verdicts_key_on_every_part(self):
        base = wave_triggered("attack-join", 2018, 1, 30, "www.x.sim", 0.5)
        varied = [
            wave_triggered("attack-churn", 2018, 1, 30, "www.x.sim", 0.5),
            wave_triggered("attack-join", 2019, 1, 30, "www.x.sim", 0.5),
            wave_triggered("attack-join", 2018, 2, 30, "www.x.sim", 0.5),
            wave_triggered("attack-join", 2018, 1, 31, "www.x.sim", 0.5),
            wave_triggered("attack-join", 2018, 1, 30, "www.y.sim", 0.5),
        ]
        # Not all perturbed draws can coincide with the base verdict --
        # each part feeds the hash.  (Statistically robust: 5 fair coins
        # all landing on `base` has probability 1/32 per fixed input,
        # and these inputs are fixed, not random.)
        assert varied != [base] * len(varied)

    def test_weighted_pick_lands_in_names(self):
        names = ["cloudflare", "incapsula"]
        weights = [0.8, 0.2]
        picks = {
            weighted_pick("p", 2018, 1, 30, f"www.s-{i}.sim", names, weights)
            for i in range(200)
        }
        assert picks <= set(names)
        assert "cloudflare" in picks  # the heavy side must show up

    def test_weighted_pick_respects_weights(self):
        names = ["cloudflare", "incapsula"]
        weights = [0.9, 0.1]
        picks = [
            weighted_pick("p", 2018, 1, 30, f"www.s-{i}.sim", names, weights)
            for i in range(1000)
        ]
        share = picks.count("cloudflare") / len(picks)
        assert 0.85 < share < 0.95


class TestChooseWaveEnrollment:
    @pytest.fixture(scope="class")
    def specs(self):
        return {spec.name: spec for spec in PAPER_PROVIDERS}

    def test_emergency_migrants_never_buy_free_plans(self, specs):
        for spec in specs.values():
            for subject in range(100):
                _, plan = choose_wave_enrollment(
                    spec, 2018, 1, 30, f"www.s-{subject}.sim"
                )
                assert plan is not PlanTier.FREE

    def test_cloudflare_cname_requires_business_or_enterprise(self, specs):
        spec = specs["cloudflare"]
        for subject in range(300):
            rerouting, plan = choose_wave_enrollment(
                spec, 2018, 1, 30, f"www.s-{subject}.sim"
            )
            if rerouting is ReroutingMethod.CNAME_BASED:
                assert plan in (PlanTier.BUSINESS, PlanTier.ENTERPRISE)

    def test_single_method_providers_always_use_it(self, specs):
        for spec in specs.values():
            if len(spec.rerouting_methods) != 1:
                continue
            for subject in range(50):
                rerouting, _ = choose_wave_enrollment(
                    spec, 2018, 1, 30, f"www.s-{subject}.sim"
                )
                assert rerouting is spec.rerouting_methods[0]

    def test_enrollment_is_deterministic(self, specs):
        spec = specs["cloudflare"]
        first = [choose_wave_enrollment(spec, 2018, 4, 33, f"www.s-{i}.sim")
                 for i in range(50)]
        again = [choose_wave_enrollment(spec, 2018, 4, 33, f"www.s-{i}.sim")
                 for i in range(50)]
        assert first == again
