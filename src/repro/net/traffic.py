"""Volumetric traffic and capacity model.

This is the substrate for the end-to-end consequence the paper motivates:
a DDoS flood aimed at a DPS edge address is absorbed by scrubbing centres
with multi-Tbps aggregate capacity, while the same flood aimed directly
at a residually-resolved origin overwhelms the origin's uplink (Fig. 1).

Volumes are expressed in Gbps.  The model is intentionally coarse — the
paper makes no packet-level claims — but it distinguishes legitimate from
attack traffic so scrubbing (which drops only attack traffic) and plain
capacity exhaustion (which drops both) behave differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError

__all__ = [
    "TrafficFlow",
    "DeliveryReport",
    "CapacityTarget",
    "zipf_weights",
]


def zipf_weights(count: int, exponent: float = 1.1) -> List[float]:
    """Normalised Zipf popularity weights for ``count`` ranked clients.

    Weight of rank ``k`` (1-based) is proportional to ``1 / k**exponent``;
    the list sums to 1.0.  This is the client-popularity skew the
    background-load plane (:mod:`repro.traffic`) uses: a handful of large
    resolver operators dominate a region's query volume, which is what
    makes per-client token buckets meaningful.
    """
    if count < 1:
        raise ConfigurationError(f"zipf_weights needs count >= 1: {count}")
    if exponent <= 0:
        raise ConfigurationError(
            f"zipf exponent must be positive: {exponent}"
        )
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


@dataclass(frozen=True)
class TrafficFlow:
    """A traffic aggregate heading to one destination.

    ``legitimate_gbps`` models real user traffic; ``attack_gbps`` models
    flood traffic.  A scrubbing centre can remove the latter; a plain
    origin server cannot.
    """

    legitimate_gbps: float = 0.0
    attack_gbps: float = 0.0

    def __post_init__(self) -> None:
        if self.legitimate_gbps < 0 or self.attack_gbps < 0:
            raise ConfigurationError("traffic volumes must be non-negative")

    @property
    def total_gbps(self) -> float:
        """Total offered load."""
        return self.legitimate_gbps + self.attack_gbps

    def scaled(self, factor: float) -> "TrafficFlow":
        """Return this flow scaled by a non-negative factor."""
        if factor < 0:
            raise ConfigurationError(f"scale factor must be non-negative: {factor}")
        return TrafficFlow(self.legitimate_gbps * factor, self.attack_gbps * factor)


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of offering a flow to a capacity-limited target."""

    offered: TrafficFlow
    delivered_legitimate_gbps: float
    delivered_attack_gbps: float
    saturated: bool

    @property
    def dropped_gbps(self) -> float:
        """Total traffic that did not get through."""
        return self.offered.total_gbps - (
            self.delivered_legitimate_gbps + self.delivered_attack_gbps
        )

    @property
    def availability(self) -> float:
        """Fraction of legitimate traffic that got through (1.0 = healthy).

        Returns 1.0 when there was no legitimate traffic to deliver.
        """
        if self.offered.legitimate_gbps == 0:
            return 1.0
        return self.delivered_legitimate_gbps / self.offered.legitimate_gbps


class CapacityTarget:
    """Anything with a finite ingest capacity: an origin uplink or a PoP.

    When offered load exceeds capacity the target becomes *saturated* and
    drops traffic indiscriminately — legitimate and attack packets suffer
    the same loss rate, which is what makes volumetric DDoS effective.
    """

    def __init__(self, name: str, capacity_gbps: float) -> None:
        if capacity_gbps <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity_gbps}")
        self.name = name
        self.capacity_gbps = capacity_gbps

    def offer(self, flow: TrafficFlow) -> DeliveryReport:
        """Offer a flow; compute what gets through."""
        total = flow.total_gbps
        if total <= self.capacity_gbps:
            return DeliveryReport(
                offered=flow,
                delivered_legitimate_gbps=flow.legitimate_gbps,
                delivered_attack_gbps=flow.attack_gbps,
                saturated=False,
            )
        keep = self.capacity_gbps / total
        return DeliveryReport(
            offered=flow,
            delivered_legitimate_gbps=flow.legitimate_gbps * keep,
            delivered_attack_gbps=flow.attack_gbps * keep,
            saturated=True,
        )

    def survives(self, flow: TrafficFlow) -> bool:
        """True when the target is not saturated by the offered flow."""
        return flow.total_gbps <= self.capacity_gbps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CapacityTarget({self.name!r}, {self.capacity_gbps} Gbps)"
