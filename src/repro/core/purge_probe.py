"""Controlled purge-time probe (§V-A-3).

The paper signs its *own* website up for Cloudflare's free plan,
terminates the service the same day, and then probes the nameservers
weekly: the stale record answered until it was purged in the 4th week.
Three trials, three weeks apart, gave the same result.

:class:`PurgeProbe` reproduces the protocol against the simulated
platform: it creates a fresh probe site (outside the studied
population, so the admin model never touches it), onboards, terminates,
and probes weekly while the world keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dns.message import Rcode
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..dps.plans import PlanTier
from ..dps.portal import ReroutingMethod
from ..web.origin import OriginServer
from ..world.hosting import HostingProvider
from ..world.internet import SimulatedInternet
from ..world.website import Website

__all__ = ["PurgeTrial", "PurgeProbe"]


@dataclass(frozen=True)
class PurgeTrial:
    """One signup/terminate/probe cycle."""

    trial: int
    plan: PlanTier
    #: Week (1-based, counted from termination) in which the record was
    #: first observed purged; None if never within the probe horizon.
    purged_in_week: Optional[int]
    #: Weeks in which the stale record still answered with the origin.
    answered_weeks: List[int]


class PurgeProbe:
    """Runs the own-site purge-measurement protocol."""

    def __init__(
        self,
        world: SimulatedInternet,
        provider_name: str = "cloudflare",
        max_weeks: int = 10,
    ) -> None:
        self.world = world
        self.provider = world.provider(provider_name)
        self.max_weeks = max_weeks
        self._trial_counter = 0

    def run_trial(
        self,
        plan: PlanTier = PlanTier.FREE,
        rerouting: ReroutingMethod = ReroutingMethod.NS_BASED,
    ) -> PurgeTrial:
        """One full cycle: sign up, terminate same day, probe weekly."""
        self._trial_counter += 1
        site = self._create_probe_site(self._trial_counter)
        origin_ip = site.origin.ip
        site.join(self.provider, rerouting, plan)
        site.leave(informed=True)

        client = self.world.dns_client()
        ns_hostnames = self.provider.nameserver_hostnames()
        answered_weeks: List[int] = []
        purged_week: Optional[int] = None
        for week in range(1, self.max_weeks + 1):
            self.world.engine.run_days(7)
            ns_hostname = ns_hostnames[week % len(ns_hostnames)]
            ns_ip = self._nameserver_ip(ns_hostname)
            response = client.query(ns_ip, site.www, RecordType.A)
            still_answers = (
                response is not None
                and response.rcode is Rcode.NOERROR
                and any(
                    r.rtype is RecordType.A and r.address == origin_ip
                    for r in response.answers
                )
            )
            if still_answers:
                answered_weeks.append(week)
            elif purged_week is None:
                purged_week = week
                break
        return PurgeTrial(
            trial=self._trial_counter,
            plan=plan,
            purged_in_week=purged_week,
            answered_weeks=answered_weeks,
        )

    def run_trials(
        self,
        count: int = 3,
        weeks_between: int = 3,
        plan: PlanTier = PlanTier.FREE,
    ) -> List[PurgeTrial]:
        """The paper's protocol: several trials, spaced apart."""
        trials = []
        for index in range(count):
            if index > 0:
                self.world.engine.run_days(7 * weeks_between)
            trials.append(self.run_trial(plan=plan))
        return trials

    # ------------------------------------------------------------------

    def _create_probe_site(self, trial: int) -> Website:
        hosting: HostingProvider = self.world.hosting_providers[0]
        apex = DomainName(f"repro-probe-{trial}.com")
        origin_ip = hosting.allocate_origin_ip()
        origin = OriginServer(apex, origin_ip, rank=10**9 + trial)
        hosting.deploy_origin(origin)
        hosting.host_zone(apex, origin_ip)
        return Website(rank=10**9 + trial, apex=apex, hosting=hosting, origin=origin)

    def _nameserver_ip(self, hostname: DomainName):
        fleet = self.provider.customer_fleet or self.provider.infra_fleet
        return fleet.address_of(hostname)
