"""Websites: ground truth and administrator DNS operations.

A :class:`Website` bundles everything one site owns — its apex, its
``www`` portal hostname, its origin server, its hosting provider — plus
the *ground-truth* DPS state that the measurement pipeline later tries
to recover.  Methods implement the administrator actions of Table IV
at the DNS/portal level: join, leave, pause, resume, switch.

Keeping ground truth alongside the mechanics is what turns the
reproduction into a falsifiable experiment: the paper could only
*measure*; we can measure **and** compare against what actually
happened.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..clock import SECONDS_PER_HOUR
from ..dns.name import DomainName
from ..dps.plans import PlanTier
from ..dps.portal import ReroutingMethod
from ..dps.provider import DpsProvider
from ..errors import SimulationError
from ..web.origin import OriginServer
from .hosting import HostingProvider

__all__ = ["Website", "GroundTruthStatus"]


class GroundTruthStatus(enum.Enum):
    """The site's actual DPS state (what Table III tries to infer)."""

    ON = "ON"
    OFF = "OFF"
    NONE = "NONE"

    def __str__(self) -> str:
        return self.value


class Website:
    """One website of the ranked population."""

    def __init__(
        self,
        rank: int,
        apex: "DomainName | str",
        hosting: HostingProvider,
        origin: OriginServer,
        dynamic_meta: bool = False,
        firewall_inclined: bool = False,
        multicdn: bool = False,
        has_dev_subdomain: bool = False,
        has_mx_leak: bool = False,
        leak_label: str = "dev",
    ) -> None:
        self.rank = rank
        self.apex = DomainName(apex)
        self.www = self.apex.child("www")
        self.hosting = hosting
        self.origin = origin
        self.dynamic_meta = dynamic_meta
        self.firewall_inclined = firewall_inclined
        self.multicdn = multicdn
        #: Table I exposure vectors this site carries: an unprotected
        #: ``dev`` subdomain on the origin host, and an MX record whose
        #: mail host shares the origin machine.
        self.has_dev_subdomain = has_dev_subdomain
        self.has_mx_leak = has_mx_leak
        #: Which auxiliary label the leaked subdomain uses (sites vary:
        #: dev, staging, test, ftp, cpanel …).
        self.leak_label = leak_label
        #: Round-robin origin pool; ``[origin.ip]`` for single-homed
        #: sites.  The event engine rotates the public A record through
        #: the pool daily while the site is unprotected.
        self.origin_pool = [origin.ip]
        self.alive = True

        # Ground-truth DPS state.
        self.provider: Optional[DpsProvider] = None
        self.status = GroundTruthStatus.NONE
        self.rerouting: Optional[ReroutingMethod] = None
        self.plan: Optional[PlanTier] = None
        #: Day index the site is scheduled to resume, if paused
        #: (None = not scheduled; resolves PAUSE → RESUME durations).
        self.resume_on_day: Optional[int] = None
        #: Day the current pause began (for exposure-window accounting).
        self.paused_on_day: Optional[int] = None

    # ------------------------------------------------------------------
    # Table IV administrator actions
    # ------------------------------------------------------------------

    def join(
        self,
        provider: DpsProvider,
        rerouting: ReroutingMethod,
        plan: PlanTier = PlanTier.FREE,
        rotate_origin_ip: bool = False,
    ) -> None:
        """Enable DPS protection (NONE → ON)."""
        if self.provider is not None:
            raise SimulationError(f"{self.www} is already on {self.provider.name}")
        if not self.alive:
            raise SimulationError(f"{self.www} is dead and cannot join a DPS")
        if rotate_origin_ip:
            self._rotate_origin()
        instructions = provider.onboard(
            self.www, self.origin.ip, rerouting, plan,
            imported_records=self.leak_records(),
        )
        if rerouting is ReroutingMethod.NS_BASED:
            self.hosting.delegate_apex_to(self.apex, instructions.nameservers)
        elif rerouting is ReroutingMethod.CNAME_BASED:
            assert instructions.cname is not None
            self.hosting.set_www_cname(self.www, instructions.cname)
        else:
            assert instructions.edge_ip is not None
            self.hosting.set_www_a(self.www, instructions.edge_ip)
        if self.firewall_inclined:
            self.origin.set_firewall(provider.prefixes)
        self.provider = provider
        self.rerouting = rerouting
        self.plan = plan
        self.status = GroundTruthStatus.ON
        self.resume_on_day = None
        self.paused_on_day = None

    # -- Table I leak records ----------------------------------------------

    def leak_records(self) -> list:
        """The zone records carrying this site's exposure vectors, with
        the *current* origin address."""
        from ..dns.records import a_record, mx_record

        records = []
        if self.has_dev_subdomain:
            records.append(
                a_record(self.apex.child(self.leak_label), self.origin.ip, ttl=SECONDS_PER_HOUR)
            )
        if self.has_mx_leak:
            mail_host = self.apex.child("mail")
            records.append(mx_record(self.apex, mail_host))
            records.append(a_record(mail_host, self.origin.ip, ttl=SECONDS_PER_HOUR))
        return records

    def refresh_leak_records(self) -> None:
        """Re-point the leak records at the current origin address in
        the site's own hosting zone (admins keep aux records in sync)."""
        if not (self.has_dev_subdomain or self.has_mx_leak):
            return
        zone = self.hosting.zone_of(self.apex)
        from ..dns.records import RecordType

        if self.has_dev_subdomain:
            zone.set_a(self.apex.child(self.leak_label), self.origin.ip, ttl=SECONDS_PER_HOUR)
        if self.has_mx_leak:
            zone.set_a(self.apex.child("mail"), self.origin.ip, ttl=SECONDS_PER_HOUR)

    def pause(self, day: int, resume_on_day: Optional[int]) -> None:
        """Temporarily disable protection (ON → OFF)."""
        if self.provider is None or self.status is not GroundTruthStatus.ON:
            raise SimulationError(f"{self.www} cannot pause (not ON)")
        self.provider.pause(self.www)
        self.status = GroundTruthStatus.OFF
        self.paused_on_day = day
        self.resume_on_day = resume_on_day

    def resume(self, rotate_origin_ip: bool = False) -> None:
        """Re-enable a paused protection (OFF → ON)."""
        if self.provider is None or self.status is not GroundTruthStatus.OFF:
            raise SimulationError(f"{self.www} cannot resume (not OFF)")
        if rotate_origin_ip:
            self._rotate_origin()
            self.provider.update_origin(self.www, self.origin.ip)
        self.provider.resume(self.www)
        self.status = GroundTruthStatus.ON
        self.resume_on_day = None
        self.paused_on_day = None

    def leave(
        self,
        informed: bool = True,
        rehost: bool = False,
        die: bool = False,
    ) -> None:
        """Leave the platform entirely (ON/OFF → NONE)."""
        provider = self._require_provider()
        provider.terminate(self.www, informed=informed)
        if self.rerouting is ReroutingMethod.NS_BASED:
            self.hosting.redelegate_to_self(self.apex)
        self.hosting.set_www_a(self.www, self.origin.ip)
        self.origin.set_firewall(None)
        self.provider = None
        self.rerouting = None
        self.plan = None
        self.status = GroundTruthStatus.NONE
        self.resume_on_day = None
        self.paused_on_day = None
        if rehost and not die:
            new_ip = self._rotate_origin()
            self.hosting.set_www_a(self.www, new_ip)
        if die:
            self._retire_pool_extras()
            self.hosting.retire_origin(self.origin)
            self.hosting.remove_www(self.www)
            self.alive = False

    def switch(
        self,
        new_provider: DpsProvider,
        rerouting: ReroutingMethod,
        plan: PlanTier = PlanTier.FREE,
        informed: bool = True,
        rotate_origin_ip: bool = False,
    ) -> None:
        """Move to another platform (P1 → P2) without an intermediate
        unprotected window."""
        old_provider = self._require_provider()
        if new_provider is old_provider:
            raise SimulationError(f"{self.www} cannot switch to the same provider")
        old_rerouting = self.rerouting
        old_provider.terminate(self.www, informed=informed)
        if rotate_origin_ip:
            self._rotate_origin()
        instructions = new_provider.onboard(
            self.www, self.origin.ip, rerouting, plan,
            imported_records=self.leak_records(),
        )
        if rerouting is ReroutingMethod.NS_BASED:
            self.hosting.delegate_apex_to(self.apex, instructions.nameservers)
        else:
            if old_rerouting is ReroutingMethod.NS_BASED:
                self.hosting.redelegate_to_self(self.apex)
            if rerouting is ReroutingMethod.CNAME_BASED:
                assert instructions.cname is not None
                self.hosting.set_www_cname(self.www, instructions.cname)
            else:
                assert instructions.edge_ip is not None
                self.hosting.set_www_a(self.www, instructions.edge_ip)
        if self.firewall_inclined:
            self.origin.set_firewall(new_provider.prefixes)
        self.provider = new_provider
        self.rerouting = rerouting
        self.plan = plan
        self.status = GroundTruthStatus.ON
        self.resume_on_day = None
        self.paused_on_day = None

    # ------------------------------------------------------------------

    @property
    def is_rotating(self) -> bool:
        """True for multi-homed round-robin origins."""
        return len(self.origin_pool) > 1

    def rotate_public_address(self, day: int) -> None:
        """Round-robin DNS: point today's public A record at the next
        pool member (only meaningful while unprotected)."""
        if not self.is_rotating or not self.alive or self.multicdn:
            return
        if self.status is not GroundTruthStatus.NONE:
            return
        current = self.origin_pool[day % len(self.origin_pool)]
        self.hosting.set_www_a(self.www, current)

    def _rotate_origin(self):
        """Move the origin to a fresh address, collapsing any round-
        robin pool (the admin re-deploys onto one new machine) and
        keeping auxiliary records in sync."""
        self._retire_pool_extras()
        new_ip = self.hosting.move_origin(self.origin)
        self.origin_pool = [new_ip]
        self.refresh_leak_records()
        return new_ip

    def _retire_pool_extras(self) -> None:
        for ip in self.origin_pool:
            if ip != self.origin.ip:
                self.hosting.retire_alias(ip)
        self.origin_pool = [self.origin.ip]

    def _require_provider(self) -> DpsProvider:
        if self.provider is None:
            raise SimulationError(f"{self.www} is not on any DPS platform")
        return self.provider

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        on = self.provider.name if self.provider else "-"
        return f"Website(#{self.rank} {self.apex} {self.status} {on})"
