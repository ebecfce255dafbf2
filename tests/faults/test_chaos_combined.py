"""Chaos composed with the traffic and attack planes.

The ``repro chaos`` harness must keep isolating the fault profile when
the other planes are installed: an equivalence fault profile stays
byte-identical under background surge *and* an attack campaign (both
worlds drive the identical campaign), the attack-aware
``attack-collateral`` profile degrades explicitly while floods are in
flight, and switching attacks off leaves the harness byte-identical to
the pre-attack-plane baseline.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.chaos import _run_workloads, run_chaos
from repro.scenario import Scenario

POPULATION = 200
SEED = 2018
WARMUP = 8


class TestEquivalenceUnderCombinedPlanes:
    def test_lossy_default_holds_under_surge_and_quiet_attacks(self):
        payload = run_chaos(
            Scenario.of(
                fault_profile="lossy-default",
                traffic_profile="surge",
                attack_profile="quiet",
            ),
            population=POPULATION,
            seed=SEED,
            warmup_days=WARMUP,
        )
        assert payload["passed"]
        assert payload["identical"]
        assert payload["divergences"] == []
        assert payload["traffic"] == "surge"
        assert payload["attacks"] == "quiet"

    def test_lossy_default_holds_mid_campaign(self):
        # Both worlds drive the identical campaign; the equivalence
        # profile's faults stay inside the retry budget even while
        # floods are opening outage windows around them.
        payload = run_chaos(
            Scenario.of(
                fault_profile="lossy-default",
                traffic_profile="surge",
                attack_profile="campaign",
            ),
            population=POPULATION,
            seed=SEED,
            warmup_days=WARMUP,
        )
        assert payload["passed"]
        assert payload["identical"]


class TestAttackCollateral:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_chaos(
            Scenario.of(
                fault_profile="attack-collateral",
                traffic_profile="surge",
                attack_profile="campaign",
            ),
            population=POPULATION,
            seed=SEED,
            warmup_days=WARMUP,
        )

    def test_degrades_explicitly_and_passes(self, payload):
        assert payload["passed"]
        assert payload["faults_injected"] > 0
        assert (
            payload["unmeasured_sites"] > 0
            or payload["quarantined_nameservers"]
            or payload["counters"].get("resolver.gave_up", 0) > 0
        )

    def test_divergence_is_reported_not_hidden(self, payload):
        assert not payload["identical"]
        assert payload["divergences"]


class TestAttackOffBaseline:
    def test_attacks_off_is_reproducible_and_attack_free(self):
        """``--attacks none`` takes the exact pre-attack-plane path: the
        artifacts are deterministic and no attack counter ever fires.
        (The cross-version byte-identity itself is held by the CI bench
        gate diffing against the pre-attack baseline file.)"""
        first, observability = _run_workloads(
            POPULATION, SEED, WARMUP, Scenario()
        )
        again, _ = _run_workloads(POPULATION, SEED, WARMUP, Scenario())
        assert first == again
        assert not any(
            name.startswith("attacks.")
            for name in observability["counters"]
        )

    def test_artifacts_carry_every_compared_field(self):
        artifacts, _ = _run_workloads(POPULATION, SEED, WARMUP, Scenario())
        assert set(artifacts) == {"e1", "e8"}
        assert len(artifacts["e1"]) == POPULATION
        assert set(artifacts["e8"]) == {
            "harvested_nameservers",
            "nameserver_addresses",
            "cloudflare_retrieved",
            "cloudflare",
            "incapsula",
        }
        assert artifacts["e8"]["cloudflare_retrieved"]

    def test_payload_records_attacks_off_as_none(self):
        payload = run_chaos(
            Scenario.of(fault_profile="lossy-default"),
            population=120,
            seed=7,
            warmup_days=4,
        )
        assert payload["attacks"] is None
        assert payload["traffic"] is None
        assert payload["passed"]

    def test_scenario_without_a_fault_profile_is_refused(self):
        with pytest.raises(ConfigurationError):
            run_chaos(Scenario.of(traffic_profile="surge"), population=40)
