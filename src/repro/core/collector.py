"""The daily DNS record collector (§IV-B-1).

The paper runs a recursive resolver in a cloud zone, purges its cache
before each run, and collects the A, CNAME, and NS records of every
tested ``www`` hostname once per day for six weeks.
:class:`DnsRecordCollector` does exactly this against the simulated
Internet: one :class:`DomainSnapshot` per site per day, aggregated into
a :class:`DailySnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..dns.message import Rcode
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..dns.resolver import RecursiveResolver, ResolutionResult

__all__ = ["DomainSnapshot", "DailySnapshot", "DnsRecordCollector"]


@dataclass(frozen=True, slots=True)
class DomainSnapshot:
    """One site's A/CNAME/NS view on one day."""

    day: int
    www: DomainName
    a_records: tuple
    cnames: tuple
    ns_targets: tuple
    rcode: Rcode = Rcode.NOERROR
    #: False when resolution gave up inside its retry budget — the
    #: snapshot is a hole in the data, not evidence of absence.  The
    #: status determiner turns unmeasured snapshots into UNMEASURED
    #: observations instead of a false NONE.
    measured: bool = True

    @property
    def resolved(self) -> bool:
        """True when the hostname resolved to at least one address."""
        return bool(self.a_records)


@dataclass
class DailySnapshot:
    """All sites' snapshots for one collection day."""

    day: int
    domains: Dict[str, DomainSnapshot] = field(default_factory=dict)

    def get(self, www: "DomainName | str") -> Optional[DomainSnapshot]:
        """Snapshot for one hostname, if collected."""
        return self.domains.get(str(DomainName(www)))

    @property
    def unmeasured_count(self) -> int:
        """Sites whose resolution gave up this day (data holes)."""
        return sum(1 for s in self.domains.values() if not s.measured)

    @property
    def is_partial(self) -> bool:
        """True when at least one site went unmeasured this day."""
        return self.unmeasured_count > 0

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains.values())


class DnsRecordCollector:
    """Collects daily A/CNAME/NS snapshots through a recursive resolver."""

    def __init__(self, resolver: RecursiveResolver) -> None:
        self._resolver = resolver
        self.runs = 0

    def state_dict(self) -> Dict[str, object]:
        """Persistent mutable state: the run counter and the resolver."""
        return {"runs": self.runs, "resolver": self._resolver.state_dict()}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        self.runs = int(state["runs"])
        self._resolver.restore_state(state["resolver"])

    def collect(
        self, hostnames: Iterable["DomainName | str"], day: int
    ) -> DailySnapshot:
        """One full collection run.

        The resolver cache is purged first so each day's records are
        independent of the previous day's (NS TTLs exceed a day).  Both
        passes (A with CNAME chain, then apex NS) run through
        :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many`, so
        sites sharing a zone cut share its delegation discovery.
        """
        self._resolver.purge_cache()
        self.runs += 1
        names = [DomainName(hostname) for hostname in hostnames]
        a_results = self._resolver.resolve_many(
            (name, RecordType.A) for name in names
        )
        ns_results = self._resolver.resolve_many(
            (name.apex, RecordType.NS) for name in names
        )
        snapshot = DailySnapshot(day=day)
        for www, a_result, ns_result in zip(names, a_results, ns_results):
            record = self._snapshot_from_results(www, day, a_result, ns_result)
            snapshot.domains[str(record.www)] = record
        if snapshot.is_partial:
            self._resolver.metrics.incr("collector.partial_days")
            self._resolver.metrics.incr(
                "collector.unmeasured", snapshot.unmeasured_count
            )
        return snapshot

    @staticmethod
    def _snapshot_from_results(
        www: DomainName,
        day: int,
        result: ResolutionResult,
        ns_result: ResolutionResult,
    ) -> DomainSnapshot:
        return DomainSnapshot(
            day=day,
            www=www,
            a_records=tuple(result.addresses),
            cnames=tuple(result.cname_targets),
            ns_targets=tuple(
                record.rdata  # an NS record's target name
                for record in ns_result.records
                if record.rtype is RecordType.NS
            ),
            rcode=result.rcode,
            measured=not (result.gave_up or ns_result.gave_up),
        )
