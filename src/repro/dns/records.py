"""Resource records.

A :class:`ResourceRecord` carries an owner name, a type, a TTL, and typed
data (``rdata``).  A/AAAA records hold :class:`~repro.net.ipaddr.IPv4Address`
values, CNAME/NS/MX hold :class:`~repro.dns.name.DomainName` targets, TXT
and SOA hold structured text.  The measurement pipeline relies on A, CNAME
and NS; MX/TXT/SOA exist because real zones have them and the origin-
exposure literature the paper builds on (Table I) uses MX records as an
exposure vector.
"""

from __future__ import annotations

import enum
import types
from dataclasses import dataclass
from typing import Union

from ..clock import SECONDS_PER_DAY
from ..errors import ZoneError
from ..net.ipaddr import IPv4Address
from .name import DomainName

__all__ = [
    "RecordType",
    "ResourceRecord",
    "SoaData",
    "a_record",
    "cname_record",
    "ns_record",
    "mx_record",
    "txt_record",
    "soa_record",
    "DEFAULT_A_TTL",
    "DEFAULT_CNAME_TTL",
    "DEFAULT_NS_TTL",
]

#: Typical TTLs.  The paper notes NS TTLs are long relative to A TTLs
#: served by DPS providers (§VI-A, footnote 13) — that asymmetry is what
#: keeps stale delegations alive after a customer departs.
DEFAULT_A_TTL = 300
DEFAULT_CNAME_TTL = 300
DEFAULT_NS_TTL = SECONDS_PER_DAY


class RecordType(enum.Enum):
    """DNS record types modelled by the simulation."""

    A = "A"
    CNAME = "CNAME"
    NS = "NS"
    MX = "MX"
    TXT = "TXT"
    SOA = "SOA"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SoaData:
    """SOA rdata: primary nameserver, admin contact, serial."""

    primary_ns: DomainName
    admin: str
    serial: int


Rdata = Union[IPv4Address, DomainName, str, SoaData]

#: The rdata class each record type requires.
_RDATA_TYPES = types.MappingProxyType(
    {
        RecordType.A: IPv4Address,
        RecordType.CNAME: DomainName,
        RecordType.NS: DomainName,
        RecordType.MX: DomainName,
        RecordType.TXT: str,
        RecordType.SOA: SoaData,
    }
)


@dataclass(frozen=True)
class ResourceRecord:
    """One DNS resource record."""

    name: DomainName
    rtype: RecordType
    ttl: int
    rdata: Rdata

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ZoneError(f"negative TTL on {self.name} {self.rtype}")
        expected = _RDATA_TYPES[self.rtype]
        if not isinstance(self.rdata, expected):
            raise ZoneError(
                f"{self.rtype} record for {self.name} needs "
                f"{expected.__name__} rdata, got {type(self.rdata).__name__}"
            )

    @property
    def address(self) -> IPv4Address:
        """The rdata as an address (A records only)."""
        if self.rtype is not RecordType.A:
            raise ZoneError(f"{self.rtype} record has no address")
        assert isinstance(self.rdata, IPv4Address)
        return self.rdata

    @property
    def target(self) -> DomainName:
        """The rdata as a name (CNAME/NS/MX records only)."""
        if self.rtype not in (RecordType.CNAME, RecordType.NS, RecordType.MX):
            raise ZoneError(f"{self.rtype} record has no target name")
        assert isinstance(self.rdata, DomainName)
        return self.rdata

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """Copy of this record with a different TTL (used by caches).

        Bypasses re-validation — the source record is already valid and
        caches call this on every read.
        """
        clone = object.__new__(ResourceRecord)
        object.__setattr__(clone, "name", self.name)
        object.__setattr__(clone, "rtype", self.rtype)
        object.__setattr__(clone, "ttl", ttl)
        object.__setattr__(clone, "rdata", self.rdata)
        return clone

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} IN {self.rtype} {self.rdata}"


# -- constructors ---------------------------------------------------------


def a_record(
    name: "DomainName | str", address: "IPv4Address | str", ttl: int = DEFAULT_A_TTL
) -> ResourceRecord:
    """Build an A record."""
    return ResourceRecord(DomainName(name), RecordType.A, ttl, IPv4Address(address))


def cname_record(
    name: "DomainName | str", target: "DomainName | str", ttl: int = DEFAULT_CNAME_TTL
) -> ResourceRecord:
    """Build a CNAME record."""
    return ResourceRecord(DomainName(name), RecordType.CNAME, ttl, DomainName(target))


def ns_record(
    name: "DomainName | str", target: "DomainName | str", ttl: int = DEFAULT_NS_TTL
) -> ResourceRecord:
    """Build an NS record."""
    return ResourceRecord(DomainName(name), RecordType.NS, ttl, DomainName(target))


def mx_record(
    name: "DomainName | str", target: "DomainName | str", ttl: int = DEFAULT_NS_TTL
) -> ResourceRecord:
    """Build an MX record (priority is irrelevant to the study and omitted)."""
    return ResourceRecord(DomainName(name), RecordType.MX, ttl, DomainName(target))


def txt_record(name: "DomainName | str", text: str, ttl: int = DEFAULT_A_TTL) -> ResourceRecord:
    """Build a TXT record."""
    return ResourceRecord(DomainName(name), RecordType.TXT, ttl, text)


def soa_record(
    name: "DomainName | str",
    primary_ns: "DomainName | str",
    admin: str = "hostmaster",
    serial: int = 1,
    ttl: int = DEFAULT_NS_TTL,
) -> ResourceRecord:
    """Build an SOA record."""
    return ResourceRecord(
        DomainName(name),
        RecordType.SOA,
        ttl,
        SoaData(DomainName(primary_ns), admin, serial),
    )
