"""Authoritative nameservers.

An :class:`AuthoritativeServer` hosts zones and answers queries with
standard semantics: authoritative answers, referrals at zone cuts (with
glue), CNAME answers for the resolver to chase, NODATA, NXDOMAIN, and
REFUSED for names it has no authority over.

A pluggable :class:`AnswerPolicy` lets platform code intervene *before*
normal lookup.  DPS providers use this hook to implement the behaviours
the paper studies: Cloudflare/Incapsula keep answering for terminated
customers (residual resolution), while well-behaved providers refuse.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dns.name import ROOT, DomainName
from ..dns.records import RecordType, ResourceRecord
from ..errors import ZoneError
from .message import DnsQuery, DnsResponse, Rcode
from .zone import Zone

__all__ = ["AnswerPolicy", "AuthoritativeServer"]


class AnswerPolicy:
    """Hook invoked before zone lookup; default does nothing.

    ``intercept`` may return a complete :class:`DnsResponse` to short-
    circuit normal processing, or None to let the zone answer.
    """

    def intercept(
        self, server: "AuthoritativeServer", query: DnsQuery
    ) -> Optional[DnsResponse]:
        """Return a response to short-circuit, or None to continue."""
        return None


class AuthoritativeServer:
    """A nameserver holding one or more zones.

    Parameters
    ----------
    name:
        The server's own hostname (e.g. ``kate.ns.cloudflare.example``).
    policy:
        Optional :class:`AnswerPolicy` consulted before zone lookup.
    """

    def __init__(self, name: "DomainName | str", policy: Optional[AnswerPolicy] = None) -> None:
        self.name = DomainName(name)
        self.policy = policy or AnswerPolicy()
        self._zones: Dict[DomainName, Zone] = {}
        self.queries_served = 0

    # -- zone management -----------------------------------------------------

    def host_zone(self, zone: Zone) -> Zone:
        """Start serving a zone; replaces any zone with the same origin."""
        self._zones[zone.origin] = zone
        return zone

    def drop_zone(self, origin: "DomainName | str") -> Optional[Zone]:
        """Stop serving a zone; returns it, or None if not hosted."""
        return self._zones.pop(DomainName(origin), None)

    def zone_for(self, name: "DomainName | str") -> Optional[Zone]:
        """The deepest hosted zone whose origin covers ``name``."""
        zones = self._zones
        if type(name) is not DomainName:
            name = DomainName(name)
        for suffix in name.suffixes():
            zone = zones.get(suffix)
            if zone is not None:
                return zone
        # The root zone (empty origin) covers everything, but is not a
        # suffix produced above.
        return zones.get(ROOT)

    @property
    def zones(self) -> List[Zone]:
        """All hosted zones."""
        return list(self._zones.values())

    # -- query processing ------------------------------------------------------

    def handle_query(self, query: DnsQuery, client_region: object = None) -> DnsResponse:
        """Answer one query.  ``client_region`` is accepted for fabric
        compatibility; plain authoritative servers ignore it."""
        self.queries_served += 1
        intercepted = self.policy.intercept(self, query)
        if intercepted is not None:
            return intercepted
        zone = self.zone_for(query.qname)
        if zone is None:
            return DnsResponse.refused(query)
        return self._answer_from_zone(zone, query)

    def _answer_from_zone(self, zone: Zone, query: DnsQuery) -> DnsResponse:
        # 1. Referral if the name sits under a zone cut.
        cut = zone.delegation_covering(query.qname)
        if cut is not None:
            return self._referral(zone, query, cut)
        # 2. CNAME at the name (unless CNAME itself was asked for).
        if query.qtype is not RecordType.CNAME:
            cnames = zone.lookup(query.qname, RecordType.CNAME)
            if cnames:
                return DnsResponse(
                    query=query, authoritative=True, answers=cnames
                )
        # 3. Exact match.
        matches = zone.lookup(query.qname, query.qtype)
        if matches:
            return DnsResponse(query=query, authoritative=True, answers=matches)
        # 4. NODATA vs NXDOMAIN.
        if zone.name_exists(query.qname):
            return DnsResponse(
                query=query, authoritative=True, authority=[zone.soa]
            )
        return DnsResponse.nxdomain(query)

    def _referral(self, zone: Zone, query: DnsQuery, cut: DomainName) -> DnsResponse:
        ns_records = zone.lookup(cut, RecordType.NS)
        if not ns_records:
            raise ZoneError(f"zone {zone.origin} lost NS records at cut {cut}")
        additional: List[ResourceRecord] = []
        for record in ns_records:
            target = record.rdata  # an NS record's target name
            if target.is_subdomain_of(zone.origin):
                additional.extend(zone.lookup(target, RecordType.A))
        return DnsResponse(
            query=query,
            rcode=Rcode.NOERROR,
            authoritative=False,
            authority=ns_records,
            additional=additional,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AuthoritativeServer({self.name}, zones={len(self._zones)})"
