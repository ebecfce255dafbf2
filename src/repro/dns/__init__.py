"""Simulated DNS ecosystem: names, records, zones, authoritative servers,
recursive resolution with TTL caching, and the root/TLD registry.

Residual resolution is a DNS-layer phenomenon; this package implements
the protocol mechanics faithfully enough that the vulnerability emerges
from configuration rather than being hard-coded.
"""

from .authoritative import AnswerPolicy, AuthoritativeServer
from .cache import DnsCache
from .client import DnsClient
from .message import DnsQuery, DnsResponse, Rcode
from .name import DomainName, ROOT
from .records import (
    DEFAULT_A_TTL,
    DEFAULT_CNAME_TTL,
    DEFAULT_NS_TTL,
    RecordType,
    ResourceRecord,
    SoaData,
    a_record,
    cname_record,
    mx_record,
    ns_record,
    soa_record,
    txt_record,
)
from .resolver import RecursiveResolver, ResolutionResult
from .root import DEFAULT_TLDS, DnsHierarchy
from .zone import Zone

__all__ = [
    "AnswerPolicy",
    "AuthoritativeServer",
    "DnsCache",
    "DnsClient",
    "DnsQuery",
    "DnsResponse",
    "Rcode",
    "DomainName",
    "ROOT",
    "DEFAULT_A_TTL",
    "DEFAULT_CNAME_TTL",
    "DEFAULT_NS_TTL",
    "RecordType",
    "ResourceRecord",
    "SoaData",
    "a_record",
    "cname_record",
    "mx_record",
    "ns_record",
    "soa_record",
    "txt_record",
    "RecursiveResolver",
    "ResolutionResult",
    "DEFAULT_TLDS",
    "DnsHierarchy",
    "Zone",
]
