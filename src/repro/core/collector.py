"""The daily DNS record collector (§IV-B-1).

The paper runs a recursive resolver in a cloud zone, purges its cache
before each run, and collects the A, CNAME, and NS records of every
tested ``www`` hostname once per day for six weeks.
:class:`DnsRecordCollector` does exactly this against the simulated
Internet, classifies each site by Table III while its answers are in
hand, and writes the day as one :class:`DayTable`: a row of integers
per site in flat :mod:`array` columns, which the GC does not track.
:class:`DomainSnapshot` and :class:`~repro.core.status.DpsObservation`
are read-only views of one row, built on demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..compat import SLOTS
from ..dns.message import Rcode
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..dns.resolver import RecursiveResolver, ResolutionResult
from ..dps.portal import ReroutingMethod
from ..net.ipaddr import IPv4Address
from .status import DpsObservation, DpsStatus, StatusDeterminer

__all__ = ["DomainSnapshot", "DayTable", "DnsRecordCollector", "series_hostnames"]


@dataclass(frozen=True, **SLOTS)
class DomainSnapshot:
    """One site's A/CNAME/NS view on one day: a view of a table row."""

    day: int
    www: DomainName
    a_records: tuple
    cnames: tuple
    ns_targets: tuple
    rcode: Rcode = Rcode.NOERROR
    #: False when resolution gave up inside its retry budget: a hole in
    #: the data, whose status is UNMEASURED instead of a false NONE.
    measured: bool = True

    @property
    def resolved(self) -> bool:
        """True when the hostname resolved to at least one address."""
        return bool(self.a_records)


#: Column codes.  A status, rcode or rerouting code is its position in
#: these tuples; a provider code is its position in the table's own
#: ``providers`` list, whose entry 0 is ``None``.
STATUSES = (DpsStatus.ON, DpsStatus.OFF, DpsStatus.NONE, DpsStatus.UNMEASURED)
UNMEASURED = STATUSES.index(DpsStatus.UNMEASURED)
RCODES = tuple(Rcode)
REROUTINGS = (None,) + tuple(ReroutingMethod)
_CODES = {
    value: code
    for values in (STATUSES, RCODES, REROUTINGS)
    for code, value in enumerate(values)
}

#: A table's integer columns and their array typecodes.
COLUMNS = {
    "site": "I", "rcode": "B", "status": "B", "provider": "B",
    "rerouting": "B", "a_end": "I", "addresses": "I", "cname_end": "I",
    "cnames": "I", "ns_end": "I", "ns": "I",
}


class DayTable:
    """One collection day: one row per site, held as integer columns.

    ``site`` indexes ``hostnames``, the runtime's hostname slice, which
    every table of a series shares.  ``status``, ``rcode``, ``provider``
    and ``rerouting`` hold codes (see :data:`STATUSES`).  A row's
    addresses are ``addresses[a_end[row - 1]:a_end[row]]``; its CNAME
    and NS targets, ``cnames`` and ``ns`` sliced alike, index ``names``.
    """

    __slots__ = ("day", "hostnames", "names", "providers") + tuple(COLUMNS)

    def __init__(self, day: int, hostnames: Sequence[str]) -> None:
        self.day = day
        self.hostnames = hostnames
        self.names: List[DomainName] = []
        self.providers: List[Optional[str]] = [None]
        for name, typecode in COLUMNS.items():
            setattr(self, name, array(typecode))

    @classmethod
    def build(
        cls, day: int, hostnames: Sequence[str], rows: Iterable[tuple]
    ) -> "DayTable":
        """A table of ``rows`` in the order given, each ``(site, rcode,
        addresses, cnames, ns_targets, status, provider, rerouting)``."""
        table = cls(day, hostnames)
        name_codes: Dict[DomainName, int] = {}
        provider_codes: Dict[Optional[str], int] = {None: 0}
        for site, rcode, addresses, cnames, ns, status, provider, rerouting in rows:
            table.site.append(site)
            table.rcode.append(_CODES[rcode])
            table.status.append(_CODES[status])
            if provider not in provider_codes:
                provider_codes[provider] = len(table.providers)
                table.providers.append(provider)
            table.provider.append(provider_codes[provider])
            table.rerouting.append(_CODES[rerouting])
            table.addresses.extend([address.value for address in addresses])
            table.a_end.append(len(table.addresses))
            for targets, column, ends in (
                (cnames, table.cnames, table.cname_end),
                (ns, table.ns, table.ns_end),
            ):
                for name in targets:
                    if name not in name_codes:
                        name_codes[name] = len(table.names)
                        table.names.append(name)
                    column.append(name_codes[name])
                ends.append(len(column))
        return table

    def www(self, row: int) -> str:
        """The hostname of ``row``."""
        return str(self.hostnames[self.site[row]])

    def addresses_of(self, row: int) -> Tuple[IPv4Address, ...]:
        """The A-record addresses of ``row``."""
        start = self.a_end[row - 1] if row else 0
        return tuple(IPv4Address(v) for v in self.addresses[start:self.a_end[row]])

    def _names(self, ends: array, codes: array, row: int) -> Tuple[DomainName, ...]:
        start = ends[row - 1] if row else 0
        return tuple(self.names[code] for code in codes[start:ends[row]])

    def snapshot(self, row: int) -> DomainSnapshot:
        """The A/CNAME/NS view of ``row``."""
        return DomainSnapshot(
            day=self.day,
            www=DomainName(self.www(row)),
            a_records=self.addresses_of(row),
            cnames=self._names(self.cname_end, self.cnames, row),
            ns_targets=self._names(self.ns_end, self.ns, row),
            rcode=RCODES[self.rcode[row]],
            measured=self.status[row] != UNMEASURED,
        )

    def observation(self, row: int) -> DpsObservation:
        """The Table III verdict of ``row``."""
        return DpsObservation(
            www=self.www(row),
            day=self.day,
            status=STATUSES[self.status[row]],
            provider=self.providers[self.provider[row]],
            rerouting=REROUTINGS[self.rerouting[row]],
        )

    def observations(self) -> Iterator[DpsObservation]:
        """Every row's verdict, in row order."""
        return map(self.observation, range(len(self)))

    def row_of_site(self, site: int) -> Optional[int]:
        """The row that holds ``site``, if any."""
        if site < len(self) and self.site[site] == site:
            return site  # a collected day: row i is site i
        return self.site.index(site) if site in self.site else None

    def get(self, www: "DomainName | str") -> Optional[DomainSnapshot]:
        """The snapshot of one hostname, if collected."""
        text = str(DomainName(www))
        sites = [site for site, name in enumerate(self.hostnames) if str(name) == text]
        row = self.row_of_site(sites[0]) if sites else None
        return None if row is None else self.snapshot(row)

    @property
    def unmeasured_count(self) -> int:
        """Sites whose resolution gave up this day (data holes)."""
        return self.status.count(UNMEASURED)

    def __len__(self) -> int:
        return len(self.site)

    def __iter__(self) -> Iterator[DomainSnapshot]:
        return map(self.snapshot, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DayTable):
            return NotImplemented
        mine = (self.day, list(self), list(self.observations()))
        return mine == (other.day, list(other), list(other.observations()))


def series_hostnames(days: Sequence[DayTable]) -> Sequence[str]:
    """The one hostname list every table of ``days`` indexes (readers of
    a series key sites by index); a series without one is refused."""
    shared = days[0].hostnames if days else []
    for table in days:
        if table.hostnames is not shared and list(table.hostnames) != list(shared):
            raise ValueError(f"day {table.day} indexes another hostname list")
    return shared


class DnsRecordCollector:
    """Collects daily A/CNAME/NS tables through a recursive resolver."""

    def __init__(
        self, resolver: RecursiveResolver, determiner: StatusDeterminer
    ) -> None:
        self._resolver = resolver
        self._determiner = determiner

    def collect(self, hostnames: Sequence[str], day: int) -> DayTable:
        """One full collection run: row ``i`` is ``hostnames[i]``.

        The resolver cache is purged first so each day's records are
        independent of the previous day's (NS TTLs exceed a day).  Both
        passes (A with CNAME chain, then apex NS) run through
        :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many`, so
        sites sharing a zone cut share its delegation discovery.  The
        table keeps a reference to ``hostnames``, not a copy.
        """
        self._resolver.purge_cache()
        names = [DomainName(hostname) for hostname in hostnames]
        a_results = self._resolver.resolve_many(
            (name, RecordType.A) for name in names
        )
        ns_results = self._resolver.resolve_many(
            (name.apex, RecordType.NS) for name in names
        )
        table = DayTable.build(day, hostnames, self._rows(a_results, ns_results))
        unmeasured = table.unmeasured_count
        if unmeasured:
            self._resolver.metrics.incr("collector.partial_days")
            self._resolver.metrics.incr("collector.unmeasured", unmeasured)
        return table

    def _rows(
        self,
        a_results: Sequence[ResolutionResult],
        ns_results: Sequence[ResolutionResult],
    ) -> Iterator[tuple]:
        """One :meth:`DayTable.build` row per site, classified by Table III."""
        for site, (result, ns_result) in enumerate(zip(a_results, ns_results)):
            addresses = result.addresses
            cnames = result.cname_targets
            ns_targets = [
                record.rdata  # an NS record's target name
                for record in ns_result.records
                if record.rtype is RecordType.NS
            ]
            if result.gave_up or ns_result.gave_up:
                verdict = (DpsStatus.UNMEASURED, None, None)
            else:
                verdict = self._determiner.classify(addresses, cnames, ns_targets)
            yield (site, result.rcode, addresses, cnames, ns_targets) + verdict
