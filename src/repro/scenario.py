"""The conditions a study runs under: its fault, traffic and attack planes.

A :class:`Scenario` names the three optional planes.
:meth:`Scenario.of` normalises the spellings once — ``None`` and
``"none"`` both mean the plane is off, an unknown name raises
:class:`~repro.errors.ConfigurationError` — so everything below the
public entry points carries one validated value instead of three loose
names.  :meth:`Scenario.identity` is what a checkpoint manifest
records, and :meth:`Scenario.install` puts the planes on a warmed-up
world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .attacks.profiles import ATTACK_PROFILES, normalize_attack_profile
from .faults.profiles import PROFILES, profile as fault_profile
from .io import content_hash
from .traffic.profiles import TRAFFIC_PROFILES, normalize_traffic_profile

__all__ = ["Scenario"]


def _normalize_fault_profile(name: Optional[str]) -> Optional[str]:
    if name is None or name == "none":
        return None
    return fault_profile(name).name


@dataclass(frozen=True)
class Scenario:
    """Which fault, traffic and attack profiles a study runs under.

    Build it with :meth:`of`; a field of ``None`` means that plane is
    off.
    """

    fault: Optional[str] = None
    traffic: Optional[str] = None
    attacks: Optional[str] = None

    @classmethod
    def of(
        cls,
        *,
        fault_profile: Optional[str] = None,
        traffic_profile: Optional[str] = None,
        attack_profile: Optional[str] = None,
    ) -> "Scenario":
        """Validate and normalise the three profile names."""
        return cls(
            fault=_normalize_fault_profile(fault_profile),
            traffic=normalize_traffic_profile(traffic_profile),
            attacks=normalize_attack_profile(attack_profile),
        )

    @staticmethod
    def known(field: str) -> List[str]:
        """The registered profile names ``field`` accepts, sorted."""
        registry = {
            "fault": PROFILES,
            "traffic": TRAFFIC_PROFILES,
            "attacks": ATTACK_PROFILES,
        }[field]
        return sorted(registry)

    def identity(self) -> Dict[str, Optional[str]]:
        """The recorded identity, keyed like :meth:`of`'s arguments."""
        return {
            "fault_profile": self.fault,
            "traffic_profile": self.traffic,
            "attack_profile": self.attacks,
        }

    @property
    def hash(self) -> str:
        """Content hash of :meth:`identity`."""
        return content_hash(self.identity())

    def install(self, world) -> None:
        """Install the planes on a warmed-up world: faults, traffic, attacks.

        Post-warm-up installation is what makes every rebuild (resume,
        shard worker, merge replay) regenerate the same day-windowed
        fault rules, background load and attack schedule.
        """
        if self.fault is not None:
            world.install_faults(self.fault)
        if self.traffic is not None:
            world.install_traffic(self.traffic)
        if self.attacks is not None:
            world.install_attacks(self.attacks)
