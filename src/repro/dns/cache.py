"""TTL-based DNS cache.

The recursive resolver caches positive answers, referral NS sets, and
glue.  Entries expire against the :class:`~repro.clock.SimulationClock`.
The cache exposes :meth:`purge` because the paper's record collector
flushes its resolver before every daily run so each day's snapshot is
independent (§IV-B-1) — and because *stale cached NS records* in resolver
caches are exactly what keeps traffic flowing to a previous DPS provider
(§VI-A).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..clock import SimulationClock
from ..net.ipaddr import IPv4Address
from ..obs.metrics import MetricsRegistry
from .name import DomainName
from .records import RecordType, ResourceRecord

__all__ = ["DnsCache"]

#: (owner name, :attr:`RecordType.code`).
_Key = Tuple[DomainName, int]

_A = RecordType.A.code
_CNAME = RecordType.CNAME.code
_NS = RecordType.NS.code


class DnsCache:  # repro: allow[REP063] -- purged before every study entry point; deliberately absent from the resolver's checkpoint state
    """Maps (name, type) to records with absolute expiry times.

    Also supports *negative* entries (RFC 2308): a cached NXDOMAIN or
    NODATA outcome, held for the zone's negative TTL, so repeated
    queries for missing names do not re-walk the hierarchy.

    Hit/miss/negative-hit accounting is kept both as plain attributes
    (``hits``/``misses``/``negative_hits``) and mirrored into an optional
    :class:`~repro.obs.metrics.MetricsRegistry` under ``cache.*`` so the
    query plane's behaviour shows up in ``repro bench`` snapshots.  Every
    (name, type) looked at counts one hit or one miss, whichever method
    looks: :meth:`get`, or the resolver's :meth:`probe`,
    :meth:`delegation_addresses` and :meth:`addresses`.
    """

    def __init__(
        self, clock: SimulationClock, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self._clock = clock
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._hit_counter = self._metrics.counter("cache.hits")
        self._miss_counter = self._metrics.counter("cache.misses")
        self._entries: Dict[_Key, List[Tuple[ResourceRecord, int]]] = {}
        #: (name, type code) → (rcode marker, expiry).  The marker is the
        #: string name of the negative outcome ("NXDOMAIN"/"NODATA").
        self._negative: Dict[_Key, Tuple[str, int]] = {}
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this cache reports into."""
        return self._metrics

    def put(self, record: ResourceRecord) -> None:
        """Cache one record until now + its TTL (TTL 0 is never cached)."""
        self.put_all((record,))

    def put_all(self, records: "Iterable[ResourceRecord]") -> None:
        """Cache several records, in order (see :meth:`put`).

        A record whose rdata is already cached at its (name, type)
        replaces that entry in place.
        """
        now = self._clock.now
        entries = self._entries
        for record in records:
            if record.ttl <= 0:
                continue
            entry = (record, now + record.ttl)
            bucket = entries.setdefault((record.name, record.rtype.code), [])
            rdata = record.rdata
            for i, (existing, _) in enumerate(bucket):
                if existing.rdata == rdata:
                    bucket[i] = entry
                    break
            else:
                bucket.append(entry)

    def get(
        self, name: "DomainName | str", rtype: RecordType
    ) -> Optional[List[ResourceRecord]]:
        """Live records for (name, type) with decremented TTLs, or None.

        Expired entries are evicted on read.  Counts a hit only when at
        least one record is still live.
        """
        if type(name) is not DomainName:
            name = DomainName(name)
        return self._live((name, rtype.code))

    def probe(
        self, name: DomainName, rtype: RecordType
    ) -> Tuple[Optional[List[ResourceRecord]], Optional[str]]:
        """The resolver's one look at a name: ``(records, negative)``.

        ``records`` are the live ``rtype`` records, else (for any other
        type than CNAME) the live CNAME records, else None; ``negative``
        is then the live negative outcome for (name, rtype), or None.
        Counts exactly what ``get(name, rtype)``, ``get(name, CNAME)``
        and ``get_negative(name, rtype)`` in that order would.
        """
        code = rtype.code
        records = self._live((name, code))
        if records is None and code != _CNAME:
            records = self._live((name, _CNAME))
        if records is not None:
            return records, None
        return None, self._negative_outcome((name, code))

    def delegation_addresses(self, zone: DomainName) -> Optional[List[IPv4Address]]:
        """Addresses of ``zone``'s cached nameservers, or None.

        None when no live NS set is cached for ``zone``; otherwise
        :meth:`addresses` of its targets, in NS order (possibly empty).
        """
        ns_records = self._live((zone, _NS))
        if ns_records is None:
            return None
        return self.addresses([record.rdata for record in ns_records])

    def addresses(self, names: Iterable[DomainName]) -> List[IPv4Address]:
        """Live cached A addresses of ``names``, in order (one hit or
        miss counted per name)."""
        found: List[IPv4Address] = []
        for name in names:
            records = self._live((name, _A))
            if records is not None:
                found.extend(record.rdata for record in records)
        return found

    def _live(self, key: _Key) -> Optional[List[ResourceRecord]]:
        """Live records at ``key``, counting one hit or one miss.

        The bucket is rebuilt only when an entry has expired, and a
        record is copied only when its remaining TTL differs from the
        TTL it was cached with.
        """
        bucket = self._entries.get(key)
        if bucket:
            now = self._clock.now
            records = [
                record if expiry - now == record.ttl else record.with_ttl(expiry - now)
                for record, expiry in bucket
                if expiry > now
            ]
            if len(records) != len(bucket):
                if records:
                    self._entries[key] = [
                        (record, expiry) for record, expiry in bucket if expiry > now
                    ]
                else:
                    del self._entries[key]
            if records:
                self.hits += 1
                self._hit_counter.incr()
                return records
        self.misses += 1
        self._miss_counter.incr()
        return None

    def contains(self, name: "DomainName | str", rtype: RecordType) -> bool:
        """True when a live entry exists (does not touch hit counters)."""
        bucket = self._entries.get((DomainName(name), rtype.code))
        if not bucket:
            return False
        now = self._clock.now
        return any(exp > now for _, exp in bucket)

    # -- negative caching (RFC 2308) -----------------------------------

    def put_negative(
        self, name: "DomainName | str", rtype: RecordType, outcome: str, ttl: int
    ) -> None:
        """Cache a negative outcome ("NXDOMAIN" or "NODATA") for ``ttl``
        seconds."""
        if outcome not in ("NXDOMAIN", "NODATA"):
            raise ValueError(f"unknown negative outcome: {outcome!r}")
        if ttl <= 0:
            return
        self._negative[(DomainName(name), rtype.code)] = (
            outcome, self._clock.now + ttl
        )

    def get_negative(
        self, name: "DomainName | str", rtype: RecordType
    ) -> Optional[str]:
        """A live negative outcome for (name, type), or None."""
        return self._negative_outcome((DomainName(name), rtype.code))

    def _negative_outcome(self, key: _Key) -> Optional[str]:
        entry = self._negative.get(key)
        if entry is None:
            return None
        outcome, expiry = entry
        if expiry <= self._clock.now:
            del self._negative[key]
            return None
        self.negative_hits += 1
        self._metrics.incr("cache.negative_hits")
        return outcome

    def evict(self, name: "DomainName | str", rtype: Optional[RecordType] = None) -> int:
        """Drop entries for a name (one type, or every type); returns count."""
        target = DomainName(name)
        removed = 0
        if rtype is not None:
            key = (target, rtype.code)
            removed += len(self._entries.pop(key, []))
            if self._negative.pop(key, None) is not None:
                removed += 1
        else:
            for key in [k for k in self._entries if k[0] == target]:
                removed += len(self._entries.pop(key))
            for key in [k for k in self._negative if k[0] == target]:
                del self._negative[key]
                removed += 1
        return removed

    def purge(self) -> None:
        """Empty the cache entirely (the collector's daily flush)."""
        self._entries.clear()
        self._negative.clear()
        self._metrics.incr("cache.purges")

    def __len__(self) -> int:
        """Number of live cached records."""
        now = self._clock.now
        return sum(
            1
            for bucket in self._entries.values()
            for _, exp in bucket
            if exp > now
        )
