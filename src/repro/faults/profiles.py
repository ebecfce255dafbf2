"""Named fault profiles for the chaos harness and the ``repro chaos`` CLI.

A :class:`FaultProfile` is a reproducible recipe: given a built world
and a metrics registry it constructs a :class:`~repro.faults.plan.FaultPlan`
whose draw seed is forked from the world's root RNG (forks are
stateless with respect to the parent, so installing a plan never
perturbs world dynamics).  ``build`` is called at *install* time —
after warm-up, right before measurement starts — so day-windowed rules
are expressed relative to the clock's current day.

Profiles marked ``expect_equivalence`` keep every fault inside the
retry budget (``max_failed_attempts`` strictly below the default
policy's ``max_attempts``, and only retryable fault kinds), so a study
run under them must produce byte-identical artifacts to a fault-free
run.  The rest deliberately exceed the budget to exercise graceful
degradation (UNMEASURED observations, quarantine, partial days).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..clock import DAYS_PER_WEEK
from ..obs.metrics import MetricsRegistry
from .plan import FaultKind, FaultPlan, FaultRule

__all__ = ["FaultProfile", "PROFILES"]

#: Failed-attempt cap used by equivalence profiles.  Strictly below the
#: default RetryPolicy.max_attempts (4): every query gets through on
#: some attempt, so artifacts match the fault-free run bit for bit.
_EQUIVALENCE_CAP = 3


@dataclass(frozen=True)
class FaultProfile:
    """A named, reproducible fault-plan recipe."""

    name: str
    description: str
    #: Whether a study under this profile must equal the fault-free run.
    expect_equivalence: bool
    _builder: Callable[[object, MetricsRegistry], List[FaultRule]]
    #: Plan-level failed-attempt cap (None removes the guarantee).
    max_failed_attempts: "int | None" = None

    def build(
        self, world: object, metrics: Optional[MetricsRegistry] = None
    ) -> FaultPlan:
        """Materialise the plan against a built world, at install time."""
        if metrics is None:
            metrics = MetricsRegistry()
        return FaultPlan(
            seed=world.rng.fork(f"fault-plan-{self.name}").seed,
            clock=world.clock,
            rules=self._builder(world, metrics),
            max_failed_attempts=self.max_failed_attempts,
            metrics=metrics,
            name=self.name,
        )


def _lossy_default(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    return [
        FaultRule(FaultKind.LATENCY, latency_ms=40, plane="both"),
        FaultRule(FaultKind.LOSS, probability=0.12, plane="dns"),
        FaultRule(FaultKind.LOSS, probability=0.10, plane="http"),
        FaultRule(FaultKind.SERVFAIL, probability=0.08, plane="dns"),
    ]


def _heavy_loss(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    return [
        FaultRule(FaultKind.LATENCY, latency_ms=120, plane="both"),
        FaultRule(FaultKind.LOSS, probability=0.55, plane="dns"),
        FaultRule(FaultKind.LOSS, probability=0.45, plane="http"),
        FaultRule(FaultKind.SERVFAIL, probability=0.30, plane="dns"),
    ]


def _ns_outage(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    """Cloudflare's customer-facing nameservers go dark for one week."""
    fleet = frozenset(world.provider("cloudflare").customer_fleet.all_addresses())
    start = world.clock.day + 2 * DAYS_PER_WEEK
    return [
        FaultRule(
            FaultKind.OUTAGE,
            plane="dns",
            addresses=fleet,
            from_day=start,
            until_day=start + DAYS_PER_WEEK,
        ),
        FaultRule(FaultKind.LOSS, probability=0.05, plane="dns"),
    ]


def _attack_collateral(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    """Ambient collateral damage while a DDoS campaign is in flight.

    Transit congestion in the three weeks after install — the window
    where the ``campaign`` attack profile lands its strikes — so
    ``repro chaos --profile attack-collateral --attacks campaign``
    stresses the degradation paths with floods and congested transit at
    once.  Loss rates sit above the retry budget on purpose, and the
    window opens on the install day itself so the chaos workloads
    (which measure immediately after install) sit inside it.
    """
    start = world.clock.day
    until = start + 3 * DAYS_PER_WEEK
    return [
        FaultRule(
            FaultKind.LATENCY,
            latency_ms=250,
            plane="both",
            from_day=start,
            until_day=until,
        ),
        FaultRule(
            FaultKind.LOSS,
            probability=0.45,
            plane="dns",
            from_day=start,
            until_day=until,
        ),
        FaultRule(
            FaultKind.LOSS,
            probability=0.35,
            plane="http",
            from_day=start,
            until_day=until,
        ),
    ]


def _regional_blackout(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    """The Sydney vantage loses connectivity for two weeks mid-study."""
    start = world.clock.day + DAYS_PER_WEEK
    return [
        FaultRule(
            FaultKind.OUTAGE,
            plane="both",
            region="sydney",
            from_day=start,
            until_day=start + 2 * DAYS_PER_WEEK,
        ),
    ]


PROFILES: Dict[str, FaultProfile] = {
    p.name: p
    for p in [
        FaultProfile(
            "lossy-default",
            "moderate loss + transient SERVFAIL + latency, all inside "
            "the retry budget (equivalence guaranteed)",
            expect_equivalence=True,
            _builder=_lossy_default,
            max_failed_attempts=_EQUIVALENCE_CAP,
        ),
        FaultProfile(
            "heavy-loss",
            "loss and SERVFAIL rates far above the retry budget; the "
            "study must degrade, not crash",
            expect_equivalence=False,
            _builder=_heavy_loss,
        ),
        FaultProfile(
            "ns-outage",
            "Cloudflare's customer nameserver fleet dark for week 2 of "
            "the study window",
            expect_equivalence=False,
            _builder=_ns_outage,
        ),
        FaultProfile(
            "attack-collateral",
            "three weeks of congested transit (latency + heavy loss) in "
            "the window where the 'campaign' attack profile strikes; the "
            "study must degrade, not crash",
            expect_equivalence=False,
            _builder=_attack_collateral,
        ),
        FaultProfile(
            "regional-blackout",
            "two-week total outage for clients in the Sydney region",
            expect_equivalence=False,
            _builder=_regional_blackout,
        ),
    ]
}

