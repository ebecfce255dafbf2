"""Attack events and the pure wave-verdict functions they trigger.

An :class:`AttackEvent` is a frozen fact: what kind of flood, aimed at
what, starting when, how hard.  The schedule is generated once at
install time (:mod:`repro.attacks.profiles`) and never mutates, so every
replica of the world — shard workers, checkpoint replays, the
coordinator's merge replay — carries a byte-identical copy.

Everything *decided* in response to an event goes through the pure
verdict functions below: whether a site joins in panic, whether a
customer of an overwhelmed provider leaves or switches, which provider a
wave migrant picks, what enrollment they buy.  Each verdict is a
:func:`~repro.rng.hash_fraction` draw keyed on (seed, event, day, subject) —
no RNG stream, no clock writes, no mutable counters — so verdicts are
independent of site iteration order and identical across shard counts
(the REP06x order-free requirement, enforced by the REP07x purity gate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..dps.catalog import ProviderSpec
from ..dps.plans import PlanTier
from ..dps.portal import ReroutingMethod
from ..markers import pure_function
from ..net.ipaddr import IPv4Address
from ..rng import hash_fraction

__all__ = [
    "AttackKind",
    "TargetKind",
    "AttackEvent",
    "block_of",
    "wave_triggered",
    "weighted_pick",
    "choose_wave_enrollment",
]


class AttackKind(enum.Enum):
    """The flood mechanics (IXP / Internet-core papers, PAPERS.md)."""

    VOLUMETRIC = "volumetric"
    AMPLIFICATION = "amplification"

    def __str__(self) -> str:
        return self.value


class TargetKind(enum.Enum):
    """What the flood is aimed at."""

    #: One website's origin server (the unprotected-victim scenario).
    SITE_ORIGIN = "site-origin"
    #: A provider's nameserver fleet (the Dyn-style provider outage).
    PROVIDER_FLEET = "provider-fleet"
    #: A co-located hosting /24 — one flood splashes every origin in the
    #: block ("The Web is Still Small", PAPERS.md).
    HOSTING_BLOCK = "hosting-block"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AttackEvent:
    """One scheduled DDoS event (immutable after install)."""

    event_id: int
    kind: AttackKind
    target_kind: TargetKind
    #: ``www`` hostname, provider name, or ``a.b.c.0/24`` block key.
    target: str
    start_day: int
    duration_days: int
    magnitude_gbps: float
    #: True when the magnitude exceeds the victim provider's aggregate
    #: scrubbing capacity — the trigger for the LEAVE/SWITCH wave.
    overwhelms: bool = False

    def active_on(self, day: int) -> bool:
        """Whether the flood is running on the given simulated day."""
        return self.start_day <= day < self.start_day + self.duration_days

    def as_dict(self) -> Dict[str, object]:
        """JSON primitives for shard payloads and exports."""
        return {
            "event_id": self.event_id,
            "kind": self.kind.value,
            "target_kind": self.target_kind.value,
            "target": self.target,
            "start_day": self.start_day,
            "duration_days": self.duration_days,
            "magnitude_gbps": self.magnitude_gbps,
            "overwhelms": self.overwhelms,
        }


def block_of(address: "IPv4Address | str") -> str:
    """The /24 co-location block key an origin address lives in."""
    value = int(IPv4Address(address))
    return f"{IPv4Address((value >> 8) << 8)}/24"


# ---------------------------------------------------------------------------
# Pure wave verdicts
# ---------------------------------------------------------------------------


@pure_function
def wave_triggered(
    label: str,
    seed: int,
    event_id: int,
    day: int,
    subject: str,
    rate: float,
) -> bool:
    """Whether one site reacts to one event on one day.

    Order-free by construction: the verdict hashes
    (label, seed, event, day, subject) against the calibrated rate, so
    it is identical no matter how the population is iterated or
    partitioned across shard workers.
    """
    if rate <= 0.0:
        return False
    return hash_fraction(label, seed, event_id, day, subject) < rate


@pure_function
def weighted_pick(
    label: str,
    seed: int,
    event_id: int,
    day: int,
    subject: str,
    names: Sequence[str],
    weights: Sequence[float],
) -> str:
    """Deterministic weighted choice (market-share provider pick).

    The same (label, seed, event, day, subject) always lands on the
    same name — the pure-hash analogue of the admin model's
    ``weighted_choice``, which must not be used on wave paths because it
    would perturb the shared admin RNG stream.
    """
    total = sum(weights)
    draw = hash_fraction(label, seed, event_id, day, subject) * total
    acc = 0.0
    for name, weight in zip(names, weights):
        acc += weight
        if draw < acc:
            return name
    return names[-1]


@pure_function
def choose_wave_enrollment(
    spec: ProviderSpec,
    seed: int,
    event_id: int,
    day: int,
    subject: str,
) -> Tuple[ReroutingMethod, PlanTier]:
    """Rerouting method and plan for an under-attack enrollment.

    Mirrors the admin model's platform constraints (Cloudflare CNAME
    needs business/enterprise, Incapsula has no free tier) but draws
    from stable hashes, and emergency migrants buy paid plans — "No
    Time for Downtime" finds post-attack customers upgrade, not
    downgrade.
    """
    methods = spec.rerouting_methods
    if len(methods) == 1:
        rerouting = methods[0]
    elif hash_fraction("attack-rerouting", seed, event_id, day, subject) < spec.cname_share:
        rerouting = ReroutingMethod.CNAME_BASED
    else:
        rerouting = next(
            m for m in methods if m is not ReroutingMethod.CNAME_BASED
        )
    if spec.name == "cloudflare" and rerouting is ReroutingMethod.CNAME_BASED:
        plan = (
            PlanTier.BUSINESS
            if hash_fraction("attack-plan", seed, event_id, day, subject) < 0.7
            else PlanTier.ENTERPRISE
        )
    elif hash_fraction("attack-plan", seed, event_id, day, subject) < 0.6:
        plan = PlanTier.PRO
    else:
        plan = PlanTier.BUSINESS
    return rerouting, plan
