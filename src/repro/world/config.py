"""World-model configuration and calibration constants.

Every stochastic knob of the simulated population lives here.  Defaults
are calibrated so a 1M-scale population reproduces the paper's measured
statistics; smaller populations reproduce the same *rates* and the
benches report scale factors alongside raw counts.

Calibration targets (see EXPERIMENTS.md for the full derivation):

* overall DPS adoption 14.85%, top-10k adoption 38.98% (§IV-B-2);
* daily behaviour counts per 1M sites: 195 JOIN, 145 LEAVE, 87 PAUSE,
  62 RESUME, 21 SWITCH (Fig. 3);
* pause-duration CDF: <50% resume within a day, ~30% exceed 5 days
  (Fig. 5), Incapsula slightly shorter than Cloudflare;
* origin-IP unchanged rates per provider (Table V, via the catalog);
* Table VI magnitudes: the hidden-record composition is driven by what
  departing customers do next (switch / stay / re-host / go dark).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError

__all__ = ["BehaviorRates", "DepartureProfile", "WorldConfig"]

#: The population size the paper's absolute numbers refer to.
PAPER_POPULATION = 1_000_000


@dataclass(frozen=True)
class BehaviorRates:
    """Per-site daily probabilities driving Fig. 3's counts.

    The numerators are the paper's average daily counts; denominators
    are the relevant at-risk pools at 1M scale (148,500 DPS customers,
    851,500 non-customers, 122,800 pause-capable customers).
    """

    join_daily: float = 195 / 851_500
    leave_daily: float = 145 / 148_500
    switch_daily: float = 21 / 148_500
    pause_daily: float = 87 / 122_800


@dataclass(frozen=True)
class DepartureProfile:
    """What a customer does around leaving a platform.

    ``informed`` is the probability the provider is told (footnote 9);
    uninformed departures leave the edge answer in place and therefore
    never leak an origin.  After an outright LEAVE, the site either
    keeps serving from the same origin, re-hosts to a new address, or
    goes dark — the latter two produce *unverifiable* hidden records,
    the switchers produce the verifiable ones (§V-A).
    """

    informed: float = 0.80
    rehost_after_leave: float = 0.22
    die_after_leave: float = 0.09
    #: Probability of rotating the origin IP when switching providers
    #: (switching "is typically not required to change the origin IP",
    #: §IV-C-3, so this is small).
    rotate_on_switch: float = 0.15


@dataclass
class WorldConfig:
    """Complete configuration of the simulated world."""

    population_size: int = 20_000
    seed: int = 2018

    # --- adoption (Fig. 2) ------------------------------------------------
    overall_adoption: float = 0.1485
    top_sites_fraction: float = 0.01
    top_sites_adoption: float = 0.3898

    # --- behaviour rates (Fig. 3) ------------------------------------------
    rates: BehaviorRates = field(default_factory=BehaviorRates)

    # --- departures (Table VI composition) ---------------------------------
    departures: Dict[str, DepartureProfile] = field(
        default_factory=lambda: {
            "default": DepartureProfile(),
            # Incapsula has no free tier; its business customers rarely
            # re-host or vanish, and usually close their accounts
            # properly — which is why its (few) hidden records verify as
            # origins far more often (69% vs 24.8%, Table VI).
            "incapsula": DepartureProfile(
                informed=0.90,
                rehost_after_leave=0.04,
                die_after_leave=0.02,
                rotate_on_switch=0.05,
            ),
        }
    )

    # --- pause behaviour (Fig. 5) ---------------------------------------------
    #: Probability a paused site never resumes (drives RESUME < PAUSE:
    #: 62 resumes vs 87 pauses per day in the paper → ~0.29).
    pause_never_resume: float = 0.29
    #: P(resume next day) — the CDF's first step (just under half).
    #: Set slightly below the paper's measured step because a six-week
    #: observation window right-censors long pauses: the *measured* CDF
    #: sits above the planted one.
    pause_one_day: float = 0.42
    #: P(resume within 2-5 days), uniform across those days.
    pause_short: float = 0.22
    #: Remaining mass is a long tail: 6 + Exp(mean 9) days.
    pause_tail_mean_days: float = 9.0
    #: Incapsula customers pause slightly shorter (Fig. 5).
    incapsula_one_day_bonus: float = 0.07

    # --- website properties ---------------------------------------------------------
    #: Fraction of origins emitting per-request (dynamic) meta tags —
    #: HTML verification false negatives (§IV-C-3).
    dynamic_meta_fraction: float = 0.08
    #: Fraction of DPS customers firewalling the origin to provider
    #: ranges — direct probes dropped (§IV-C-3).
    firewall_fraction: float = 0.10
    #: Fraction of sites behind a multi-CDN front-end (filtered out of
    #: behaviour stats, §IV-B-3).
    multicdn_fraction: float = 0.002
    #: Table I attack-vector prevalence: fraction of sites with an
    #: unprotected auxiliary subdomain (``dev.``) on the origin host,
    #: and with an MX record pointing at the origin host.  Calibrated to
    #: the Vissers et al. finding that >70% of protected sites are
    #: vulnerable to at least one exposure vector.
    subdomain_leak_fraction: float = 0.15
    mx_leak_fraction: float = 0.20
    #: Fraction of sites whose origin is multi-homed behind round-robin
    #: DNS: the site serves from several addresses and the public A
    #: record rotates daily.  A DPS's *stored* origin for such a site is
    #: usually absent from any single day's public answer — making it a
    #: hidden record — yet still serves the site, so it HTML-verifies.
    #: This is what gives Incapsula's (business-heavy) hidden records
    #: their high verified rate in Table VI.
    rotating_origin_fraction: float = 0.08
    #: Addresses in a rotating origin's pool.
    origin_pool_size: int = 3

    # --- plan mix (purge horizons / Fig. 9 tail) ------------------------------------
    plan_mix: Dict[str, float] = field(
        default_factory=lambda: {
            "free": 0.70,
            "pro": 0.15,
            "business": 0.10,
            "enterprise": 0.05,
        }
    )

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ConfigurationError(
                f"population must be >= 1, got {self.population_size}"
            )

    def departure_profile(self, provider_name: str) -> DepartureProfile:
        """The departure profile for a provider (falling back to default)."""
        return self.departures.get(provider_name, self.departures["default"])

    @property
    def scale_factor(self) -> float:
        """How many real-world (1M-list) sites one simulated site stands for."""
        return PAPER_POPULATION / self.population_size
