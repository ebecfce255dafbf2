"""DNS messages: queries, responses, response codes.

Responses carry the standard three sections (answer, authority,
additional) so the recursive resolver can distinguish authoritative
answers from referrals, follow delegations using glue, and detect
CNAME chains — all behaviours the residual-resolution study depends on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..net.ipaddr import IPv4Address
from .name import DomainName
from .records import RecordType, ResourceRecord

__all__ = ["Rcode", "DnsQuery", "DnsResponse"]


class Rcode(enum.Enum):
    """Response codes used by the simulation."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    SERVFAIL = "SERVFAIL"
    REFUSED = "REFUSED"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DnsQuery:
    """A single-question DNS query."""

    qname: DomainName
    qtype: RecordType
    recursion_desired: bool = False

    def __str__(self) -> str:
        rd = "+rd" if self.recursion_desired else ""
        return f"? {self.qname} {self.qtype}{rd}"


@dataclass
class DnsResponse:
    """A DNS response with the three standard record sections."""

    query: DnsQuery
    rcode: Rcode = Rcode.NOERROR
    authoritative: bool = False
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)
    additional: List[ResourceRecord] = field(default_factory=list)

    # -- classification ---------------------------------------------------

    @property
    def is_referral(self) -> bool:
        """A delegation: no answers, NS records in the authority section."""
        return (
            self.rcode is Rcode.NOERROR
            and not self.answers
            and any(r.rtype is RecordType.NS for r in self.authority)
        )

    @property
    def is_answer(self) -> bool:
        """True when the answer section is non-empty and rcode is NOERROR."""
        return self.rcode is Rcode.NOERROR and bool(self.answers)

    @property
    def is_empty_noerror(self) -> bool:
        """NOERROR with no answers and no referral (NODATA)."""
        return self.rcode is Rcode.NOERROR and not self.answers and not self.is_referral

    # -- extraction helpers ------------------------------------------------

    def answer_records(self, rtype: RecordType) -> List[ResourceRecord]:
        """Answer-section records of one type."""
        return [r for r in self.answers if r.rtype is rtype]

    def addresses(self) -> List[IPv4Address]:
        """All A-record addresses in the answer section."""
        return [r.address for r in self.answer_records(RecordType.A)]

    def cname_target(self) -> Optional[DomainName]:
        """Target of the first CNAME in the answer section, if any."""
        cnames = self.answer_records(RecordType.CNAME)
        return cnames[0].target if cnames else None

    def referral_nameservers(self) -> List[DomainName]:
        """Nameserver names from a referral's authority section."""
        return [r.rdata for r in self.authority if r.rtype is RecordType.NS]

    def glue_for(self, nameserver: DomainName) -> List[IPv4Address]:
        """Glue addresses for a referral nameserver, from the additional section."""
        return [
            r.address
            for r in self.additional
            if r.rtype is RecordType.A and r.name == nameserver
        ]

    @classmethod
    def refused(cls, query: DnsQuery) -> "DnsResponse":
        """Convenience constructor for a REFUSED response."""
        return cls(query=query, rcode=Rcode.REFUSED)

    @classmethod
    def nxdomain(cls, query: DnsQuery, authoritative: bool = True) -> "DnsResponse":
        """Convenience constructor for an NXDOMAIN response."""
        return cls(query=query, rcode=Rcode.NXDOMAIN, authoritative=authoritative)

    @classmethod
    def servfail(cls, query: DnsQuery) -> "DnsResponse":
        """Convenience constructor for a SERVFAIL response."""
        return cls(query=query, rcode=Rcode.SERVFAIL)
