"""Countermeasures against residual resolution (§VI-B).

Provider side:

* **silent termination** — swap the platform's residual policy to
  :class:`~repro.dps.residual_policy.RefuseAfterTermination`;
* **track-and-compare** — swap to
  :class:`~repro.dps.residual_policy.TrackAndCompare`, which keeps
  answering only while the public resolution still matches the stored
  origin (service continuity without exposure).

Customer side:

* **fake A record** — set the stored origin to a decoy address in the
  portal just before terminating, so whatever the provider leaks is
  worthless;
* **rotate after adopting** — change the origin address after joining a
  new platform (``Website.switch(..., rotate_origin_ip=True)``), which
  kills this vector *and* the rest of Table I.
"""

from __future__ import annotations

from ..dps.provider import DpsProvider
from ..dps.residual_policy import (
    RefuseAfterTermination,
    ResidualPolicy,
    TrackAndCompare,
)
from ..net.ipaddr import IPv4Address
from ..world.website import Website

__all__ = [
    "apply_provider_policy",
    "silent_termination",
    "track_and_compare",
    "leave_with_fake_a",
]


def apply_provider_policy(provider: DpsProvider, policy: ResidualPolicy) -> ResidualPolicy:
    """Swap a platform's residual policy; returns the previous one."""
    previous = provider.residual_policy
    provider.residual_policy = policy
    return previous


def silent_termination(provider: DpsProvider) -> ResidualPolicy:
    """Stop answering for ex-customers entirely (§VI-B-1, option 1)."""
    return apply_provider_policy(provider, RefuseAfterTermination())


def track_and_compare(provider: DpsProvider) -> ResidualPolicy:
    """Answer only while the public resolution still matches (option 2)."""
    return apply_provider_policy(provider, TrackAndCompare())


def leave_with_fake_a(
    site: Website,
    fake_address: "IPv4Address | str",
    informed: bool = True,
    rehost: bool = False,
    die: bool = False,
) -> None:
    """Customer-side decoy (§VI-B-2): poison the stored origin, then leave.

    After this, any residual answer from the previous provider points at
    the decoy rather than the real origin.
    """
    provider = site.provider
    if provider is None:
        raise ValueError(f"{site.www} is not on any DPS platform")
    provider.update_origin(site.www, IPv4Address(fake_address))
    site.leave(informed=informed, rehost=rehost, die=die)
