"""The conditions a study runs under: its fault, traffic and attack planes.

A :class:`Scenario` names the optional planes, one field each.
:meth:`Scenario.of` normalises the spellings once — ``None`` and
``"none"`` both mean the plane is off, an unknown name raises
:class:`~repro.errors.ConfigurationError` — so everything below the
public entry points carries one validated value instead of loose names.
:meth:`Scenario.identity` is what a checkpoint manifest records, and
:meth:`Scenario.install` puts the planes on a warmed-up world.

:data:`PLANES` is the one table of plane kinds.  It drives ``Scenario``
and :meth:`~repro.world.internet.SimulatedInternet.install_plane`; below
them the fabric, the world engine, checkpoint snapshots and shard
merging handle whatever is installed through the fabric's
:class:`~repro.net.fabric.Plane` contract, without naming a plane.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, NamedTuple, Optional

from .attacks.plane import AttackPlane
from .attacks.profiles import ATTACK_PROFILES, AttackProfile
from .errors import ConfigurationError
from .faults.plan import FaultPlan
from .faults.profiles import PROFILES, FaultProfile
from .io import content_hash
from .obs.metrics import MetricsRegistry
from .traffic.plane import TrafficPlane
from .traffic.profiles import TRAFFIC_PROFILES, TrafficProfile

__all__ = ["PLANES", "PlaneKind", "Scenario", "plane_kind"]


class PlaneKind(NamedTuple):
    """One kind of plane: its names, its profiles and its plane class."""

    #: The :class:`Scenario` field, and the plane's key on the fabric.
    field: str
    #: The :meth:`Scenario.of` keyword, and the key in the identity.
    keyword: str
    #: Registered profiles by name; each builds a plane at install time.
    profiles: Mapping[str, object]
    profile_type: type
    plane_type: type

    def lookup(self, name: str) -> object:
        """The registered profile called ``name``."""
        try:
            return self.profiles[name]
        except KeyError:
            noun = self.keyword[: -len("_profile")]
            raise ConfigurationError(
                f"unknown {noun} profile {name!r}; "
                f"known: {', '.join(sorted(self.profiles))} (or 'none')"
            ) from None

    def normalize(self, name: Optional[str]) -> Optional[str]:
        """The canonical profile name, or None for ``None``/``"none"``."""
        if name is None or name == "none":
            return None
        return self.lookup(name).name

    def build(
        self, world: object, profile: object, metrics: Optional[MetricsRegistry]
    ) -> object:
        """A plane from a profile name, a profile, or a built plane."""
        if isinstance(profile, str):
            profile = self.lookup(profile)
        if isinstance(profile, self.profile_type):
            return profile.build(world, metrics)
        if isinstance(profile, self.plane_type):
            return profile
        raise ConfigurationError(
            f"cannot install {self.field} from {type(profile).__name__}"
        )


#: Every plane kind, in the order the fabric consults them and the
#: engine drives them: a fault drop pre-empts an attack outage, which
#: pre-empts a traffic throttle, and the traffic plane sees the day's
#: attack surge.  (Installation follows :class:`Scenario`'s field order
#: instead.)
PLANES = (
    PlaneKind("fault", "fault_profile", PROFILES, FaultProfile, FaultPlan),
    PlaneKind(
        "attacks", "attack_profile", ATTACK_PROFILES, AttackProfile, AttackPlane
    ),
    PlaneKind(
        "traffic", "traffic_profile", TRAFFIC_PROFILES, TrafficProfile, TrafficPlane
    ),
)


def plane_kind(field: str) -> PlaneKind:
    """The :data:`PLANES` row for a scenario field."""
    for kind in PLANES:
        if kind.field == field:
            return kind
    raise ConfigurationError(
        f"unknown plane {field!r}; known: {', '.join(k.field for k in PLANES)}"
    )


@dataclass(frozen=True)
class Scenario:
    """Which fault, traffic and attack profiles a study runs under.

    Build it with :meth:`of`; a field of ``None`` means that plane is
    off.  Each field is a :data:`PLANES` row's ``field``.
    """

    fault: Optional[str] = None
    traffic: Optional[str] = None
    attacks: Optional[str] = None

    @classmethod
    def of(cls, **profiles: Optional[str]) -> "Scenario":
        """Validate and normalise profile names given by ``keyword``."""
        values = {}
        for field in fields(cls):
            kind = plane_kind(field.name)
            values[field.name] = kind.normalize(profiles.pop(kind.keyword, None))
        if profiles:
            raise TypeError(
                f"Scenario.of() got unexpected keyword(s): {', '.join(sorted(profiles))}"
            )
        return cls(**values)

    @staticmethod
    def known(field: str) -> List[str]:
        """The registered profile names ``field`` accepts, sorted."""
        return sorted(plane_kind(field).profiles)

    def identity(self) -> Dict[str, Optional[str]]:
        """The recorded identity, keyed like :meth:`of`'s arguments."""
        return {
            plane_kind(field.name).keyword: getattr(self, field.name)
            for field in fields(self)
        }

    @property
    def hash(self) -> str:
        """Content hash of :meth:`identity`."""
        return content_hash(self.identity())

    def install(self, world) -> None:
        """Install the planes on a warmed-up world, in field order:
        faults, traffic, attacks.

        Post-warm-up installation is what makes every rebuild (resume,
        shard worker, merge replay) regenerate the same day-windowed
        fault rules, background load and attack schedule.
        """
        for field in fields(self):
            name = getattr(self, field.name)
            if name is not None:
                world.install_plane(field.name, name)
