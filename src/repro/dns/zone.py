"""DNS zones.

A :class:`Zone` is the authoritative data for a subtree of the namespace:
an origin name, a record store, and optional *delegations* (zone cuts)
that hand subtrees to child nameservers.  Glue records live beside the
delegation so referrals can carry nameserver addresses.

Zones are mutable — customers re-point apexes at DPS providers, providers
add and purge customer records — and every mutation bumps the SOA serial,
which the tests use to assert that stale data really is stale.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ZoneError
from ..net.ipaddr import IPv4Address
from .name import DomainName
from .records import (
    DEFAULT_NS_TTL,
    RecordType,
    ResourceRecord,
    a_record,
    ns_record,
    soa_record,
)

__all__ = ["Zone"]

#: (owner name, :attr:`RecordType.code`).
_Key = Tuple[DomainName, int]


class Zone:
    """Authoritative data for one zone."""

    def __init__(
        self,
        origin: "DomainName | str",
        primary_ns: "DomainName | str" = "ns.invalid",
    ) -> None:
        self.origin = DomainName(origin)
        self._records: Dict[_Key, List[ResourceRecord]] = {}
        self._delegations: Set[DomainName] = set()
        #: Reference counts of records at or below each in-zone name,
        #: kept so existence checks are O(depth) instead of O(zone).
        self._name_index: Dict[DomainName, int] = {}
        self._soa = soa_record(self.origin, primary_ns)

    # -- bookkeeping -------------------------------------------------------

    @property
    def serial(self) -> int:
        """Current SOA serial; bumped on every mutation."""
        assert not isinstance(self._soa.rdata, (IPv4Address, DomainName, str))
        return self._soa.rdata.serial

    @property
    def soa(self) -> ResourceRecord:
        """The zone's SOA record."""
        return self._soa

    def _bump_serial(self) -> None:
        data = self._soa.rdata
        assert not isinstance(data, (IPv4Address, DomainName, str))
        self._soa = soa_record(
            self.origin, data.primary_ns, data.admin, data.serial + 1, self._soa.ttl
        )

    def _check_in_zone(self, name: DomainName) -> None:
        if not name.is_subdomain_of(self.origin):
            raise ZoneError(f"{name} is outside zone {self.origin}")

    def _index_add(self, name: DomainName, count: int = 1) -> None:
        origin_depth = len(self.origin)
        for suffix in name.suffixes():
            if len(suffix) < origin_depth:
                break
            self._name_index[suffix] = self._name_index.get(suffix, 0) + count

    def _index_remove(self, name: DomainName, count: int = 1) -> None:
        origin_depth = len(self.origin)
        for suffix in name.suffixes():
            if len(suffix) < origin_depth:
                break
            remaining = self._name_index.get(suffix, 0) - count
            if remaining > 0:
                self._name_index[suffix] = remaining
            else:
                self._name_index.pop(suffix, None)

    # -- mutation ----------------------------------------------------------

    def add(self, record: ResourceRecord) -> None:
        """Add a record (duplicates by (name, type, rdata) are rejected)."""
        self._check_in_zone(record.name)
        if record.rtype is RecordType.SOA:
            raise ZoneError("set the SOA via the constructor, not add()")
        if record.rtype is RecordType.CNAME:
            self._check_cname_constraints(record.name)
        bucket = self._records.setdefault((record.name, record.rtype.code), [])
        if any(existing.rdata == record.rdata for existing in bucket):
            raise ZoneError(f"duplicate record: {record}")
        bucket.append(record)
        self._index_add(record.name)
        if record.rtype is RecordType.NS and record.name != self.origin:
            self._delegations.add(record.name)
        self._bump_serial()

    def _check_cname_constraints(self, name: DomainName) -> None:
        # A CNAME cannot coexist with other data at the same name.
        for rtype in RecordType:
            if self._records.get((name, rtype.code)):
                raise ZoneError(f"CNAME at {name} conflicts with existing data")

    def replace(self, record: ResourceRecord) -> None:
        """Replace all records of (name, type) with a single record."""
        self.remove_all(record.name, record.rtype)
        self.add(record)

    def remove_all(self, name: "DomainName | str", rtype: RecordType) -> int:
        """Remove every record of (name, type); returns how many vanished."""
        target = DomainName(name)
        bucket = self._records.pop((target, rtype.code), [])
        if rtype is RecordType.NS:
            self._delegations.discard(target)
        if bucket:
            self._index_remove(target, len(bucket))
            self._bump_serial()
        return len(bucket)

    def remove_name(self, name: "DomainName | str") -> int:
        """Remove every record at a name, all types."""
        target = DomainName(name)
        removed = 0
        for rtype in RecordType:
            bucket = self._records.pop((target, rtype.code), None)
            if bucket:
                removed += len(bucket)
                self._index_remove(target, len(bucket))
                if rtype is RecordType.NS:
                    self._delegations.discard(target)
        if removed:
            self._bump_serial()
        return removed

    def clear(self) -> None:
        """Remove every record in the zone."""
        self._records.clear()
        self._delegations.clear()
        self._name_index.clear()
        self._bump_serial()

    # -- convenience mutators -----------------------------------------------

    def set_a(
        self, name: "DomainName | str", address: "IPv4Address | str", ttl: int = 300
    ) -> ResourceRecord:
        """Point ``name`` at an address, replacing previous A records."""
        record = a_record(name, address, ttl)
        self.replace(record)
        return record

    def delegate(
        self,
        child: "DomainName | str",
        nameservers: Iterable["DomainName | str"],
        glue: Optional[Dict[str, "IPv4Address | str"]] = None,
        ttl: int = DEFAULT_NS_TTL,
    ) -> None:
        """Create (or replace) a zone cut delegating ``child``.

        ``glue`` maps in-bailiwick nameserver hostnames to addresses.
        """
        child_name = DomainName(child)
        self._check_in_zone(child_name)
        if child_name == self.origin:
            raise ZoneError("cannot delegate the zone origin")
        self.remove_all(child_name, RecordType.NS)
        ns_names = [DomainName(n) for n in nameservers]
        if not ns_names:
            raise ZoneError(f"delegation of {child_name} needs nameservers")
        for ns_name in ns_names:
            self.add(ns_record(child_name, ns_name, ttl))
        for host, address in (glue or {}).items():
            glue_name = DomainName(host)
            self._check_in_zone(glue_name)
            existing = {r.rdata for r in self.lookup(glue_name, RecordType.A)}
            if IPv4Address(address) not in existing:
                self.add(a_record(glue_name, address, ttl))

    def undelegate(self, child: "DomainName | str") -> None:
        """Remove a zone cut (NS records only; glue stays until removed)."""
        self.remove_all(DomainName(child), RecordType.NS)

    # -- lookup --------------------------------------------------------------

    def lookup(self, name: "DomainName | str", rtype: RecordType) -> List[ResourceRecord]:
        """Exact-match lookup; empty list when absent."""
        if type(name) is not DomainName:
            name = DomainName(name)
        if rtype is RecordType.SOA and name == self.origin:
            return [self._soa]
        return list(self._records.get((name, rtype.code), ()))

    def name_exists(self, name: "DomainName | str") -> bool:
        """True when any record exists at or below the name (ENT-aware)."""
        target = DomainName(name)
        if target == self.origin:
            return True
        return self._name_index.get(target, 0) > 0

    def delegation_covering(self, name: "DomainName | str") -> Optional[DomainName]:
        """The deepest zone cut at-or-above ``name``, if one exists."""
        delegations = self._delegations
        if not delegations:
            return None
        target = name if type(name) is DomainName else DomainName(name)
        # Suffixes come longest first; only those below the origin count.
        below_origin = max(0, len(target) - len(self.origin))
        for suffix in target.suffixes()[:below_origin]:
            if suffix in delegations:
                return suffix
        return None

    def all_records(self) -> List[ResourceRecord]:
        """Every record in the zone (SOA included), for dumps and tests."""
        records = [self._soa]
        for bucket in self._records.values():
            records.extend(bucket)
        return records

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._records.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Zone({self.origin}, {len(self)} records)"
