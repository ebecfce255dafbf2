"""The day-step event engine.

Advances the simulated world one day at a time: every administrator
takes their daily actions, multi-CDN front-ends re-select member CDNs,
and providers purge stale records past their plan horizons.  All
ground-truth behaviour events are logged so measurements can be
validated against what actually happened.

The paper notes its real experiment intervals varied between 20 and 30
hours, which aggregated behaviours into visible spikes (§IV-B-3);
``interval_jitter_hours`` reproduces that artefact on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..clock import SECONDS_PER_HOUR, SimulationClock
from ..rng import SeededRng
from .admin import AdminBehaviorModel, BehaviorEvent, BehaviorKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..net.fabric import Plane
    from .internet import SimulatedInternet

__all__ = ["WorldEngine"]


class WorldEngine:
    """Drives the simulated world forward in daily steps."""

    def __init__(
        self,
        world: "SimulatedInternet",
        interval_jitter_hours: int = 0,
    ) -> None:
        self.world = world
        self.interval_jitter_hours = interval_jitter_hours
        self.events: List[BehaviorEvent] = []
        #: Observation intervals run so far.  Under interval jitter the
        #: clock's day no longer counts them; a study begun on this
        #: world reads this to run only the warm-up days still missing.
        self.days_run = 0
        self._jitter_rng: SeededRng = world.rng.fork("interval-jitter")

    @property
    def clock(self) -> SimulationClock:
        """The world's clock."""
        return self.world.clock

    @property
    def admin(self) -> AdminBehaviorModel:
        """The world's administrator model."""
        return self.world.admin

    # ------------------------------------------------------------------

    def run_day(self) -> List[BehaviorEvent]:
        """Execute one observation interval; returns its events.

        With ``interval_jitter_hours`` set, intervals vary around 24 h
        (the paper's real intervals were 20-30 h, §IV-B-3) and behaviour
        rates scale with the elapsed time, aggregating events into the
        spikes visible in Fig. 3.
        """
        day = self.clock.day
        interval_hours = self._draw_interval_hours()
        rate_scale = interval_hours / 24.0
        todays: List[BehaviorEvent] = []
        for site in self.world.population:
            todays.extend(self.admin.step_site(site, day, rate_scale))
            site.rotate_public_address(day)
        self._flip_multicdn(day)
        # The planes are part of the day's world dynamics, driven in the
        # fabric's order by every replica alike; each sees the load surge
        # of those before it (traffic sees the day's attack surge).
        surge = 1.0
        plane: Plane
        for plane in self.world.fabric.planes.values():
            todays.extend(plane.drive_day(surge))
            surge *= plane.traffic_surge
        self.events.extend(todays)
        self.days_run += 1
        self.clock.advance(interval_hours * SECONDS_PER_HOUR)
        # Stale-record purging is a start-of-day platform job: records
        # whose horizon elapses on day N are gone before day N's queries.
        for provider in self.world.providers.values():
            provider.purge_expired()
        return todays

    def run_days(self, days: int) -> List[BehaviorEvent]:
        """Execute several days; returns all events across them."""
        collected: List[BehaviorEvent] = []
        for _ in range(days):
            collected.extend(self.run_day())
        return collected

    # ------------------------------------------------------------------

    def _draw_interval_hours(self) -> int:
        if self.interval_jitter_hours <= 0:
            return 24
        jitter = self._jitter_rng.randint(
            -self.interval_jitter_hours, self.interval_jitter_hours
        )
        return max(1, 24 + jitter)

    def _flip_multicdn(self, day: int) -> None:
        service = self.world.multicdn
        if service is None:
            return
        for site in self.world.population:
            if not site.multicdn:
                continue
            member = service.provider_for(site.www, day)
            canonicals: Dict[str, object] = getattr(site, "multicdn_canonicals", {})
            canonical = canonicals.get(member)
            if canonical is not None:
                site.hosting.set_www_cname(site.apex, canonical)

    # ------------------------------------------------------------------
    # Ground-truth summaries (used to validate measurements)
    # ------------------------------------------------------------------

    def daily_counts(self) -> Dict[int, Dict[BehaviorKind, int]]:
        """Events per day per kind — the ground truth behind Fig. 3."""
        table: Dict[int, Dict[BehaviorKind, int]] = {}
        for event in self.events:
            table.setdefault(event.day, {kind: 0 for kind in BehaviorKind})
            table[event.day][event.kind] += 1
        return table
