"""Recursive resolver with real iterative resolution.

The resolver walks the delegation tree from the root hints, follows
referrals using glue (or resolves out-of-bailiwick nameserver names),
chases CNAME chains, and caches what it learns.

Two behaviours matter specifically for the paper:

* **Cache purging** — the record collector flushes before each daily run
  (§IV-B-1) via :meth:`RecursiveResolver.purge_cache`.
* **Stale delegations** — cached NS records are reused until TTL expiry,
  so a resolver that cached a delegation to a DPS provider keeps sending
  queries there even after the registry delegation changed.  This is the
  root cause of residual resolution (§VI-A): providers keep answering
  those queries "for service continuity", and in doing so expose origins.

Transport goes through the fabric's fault-aware delivery path: each
server is tried under a :class:`~repro.faults.retry.RetryPolicy`
(timeouts and transient ``SERVFAIL`` retried with keyed-jitter
backoff), and a server that exhausts its budget triggers failover to the
next server of the zone — timeout failover, not just the REFUSED
failover real resolvers do on lame delegations.  Servers that give up
this way enter a :class:`~repro.faults.quarantine.NameserverQuarantine`
and are deprioritised until their scheduled re-probe.  A resolution
whose failure was caused by exhausted retries is marked ``gave_up`` so
the measurement layer can degrade to UNMEASURED instead of recording a
false negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..clock import SimulationClock
from ..errors import ResolutionError
from ..faults.quarantine import NameserverQuarantine
from ..faults.retry import RetryPolicy
from ..net.fabric import NetworkFabric
from ..net.geo import Region
from ..net.ipaddr import IPv4Address
from ..obs.metrics import MetricsRegistry
from .cache import DnsCache
from .message import DnsQuery, DnsResponse, Rcode
from .name import DomainName
from .records import RecordType, ResourceRecord

__all__ = ["RecursiveResolver", "ResolutionResult"]

_MAX_CNAME_DEPTH = 8
_MAX_REFERRALS = 24
_MAX_NS_LOOKUP_DEPTH = 4
#: Negative-cache TTL when the authority section carries no SOA (RFC
#: 2308 caps negative TTLs; authorities here answer NXDOMAIN bare).
_DEFAULT_NEGATIVE_TTL = 300


@dataclass
class ResolutionResult:
    """Outcome of a full recursive resolution."""

    qname: DomainName
    qtype: RecordType
    rcode: Rcode
    records: List[ResourceRecord] = field(default_factory=list)
    cname_chain: List[Tuple[DomainName, DomainName]] = field(default_factory=list)
    #: True when the failure was caused by exhausted retries against
    #: unresponsive servers — the answer is *unknown*, not negative.
    #: Fault-free resolutions never set this.
    gave_up: bool = False

    @property
    def ok(self) -> bool:
        """True when resolution produced at least one record of qtype."""
        return self.rcode is Rcode.NOERROR and bool(self.records)

    @property
    def addresses(self) -> List[IPv4Address]:
        """A-record addresses in the final answer (qtype A only)."""
        return [r.rdata for r in self.records if r.rtype is RecordType.A]

    @property
    def final_name(self) -> DomainName:
        """The name the answer is for, after CNAME chasing."""
        return self.cname_chain[-1][1] if self.cname_chain else self.qname

    @property
    def cname_targets(self) -> List[DomainName]:
        """Every CNAME target encountered, in chase order."""
        return [target for _, target in self.cname_chain]


class RecursiveResolver:
    """An iterative-mode recursive resolver bound to one client region."""

    def __init__(
        self,
        fabric: NetworkFabric,
        clock: SimulationClock,
        root_hints: List["IPv4Address | str"],
        region: Optional[Region] = None,
        cache: Optional[DnsCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        quarantine: Optional[NameserverQuarantine] = None,
    ) -> None:
        if not root_hints:
            raise ResolutionError("resolver needs at least one root hint")
        self._fabric = fabric
        self._clock = clock
        self._root_hints = [IPv4Address(ip) for ip in root_hints]
        self.region = region
        #: Shared observability registry; an externally supplied cache
        #: keeps its own registry (it may be shared with other owners).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else DnsCache(clock, self.metrics)
        counter = self.metrics.counter
        self._resolutions = counter("resolver.resolutions")
        self._cname_links = counter("resolver.cname_links")
        self._referrals = counter("resolver.referrals")
        self._zonecut_hits = counter("resolver.zonecut_hits")
        self._queries = counter("resolver.queries_sent")
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: Keys this resolver's retry jitter.
        self._label = f"resolver-{region.name if region is not None else 'global'}"
        self.quarantine = (
            quarantine if quarantine is not None else NameserverQuarantine(clock)
        )
        self.queries_sent = 0
        #: The per-batch zone-cut memo (:meth:`resolve_many`): each zone
        #: cut walked during the batch → the (non-empty) server list its
        #: referral handed out.  Sibling names under an already-walked
        #: zone start at that delegation directly — no repeated root/TLD
        #: descent, no dependence on the referral records' TTLs being
        #: long enough to survive in the TTL cache.  Server lists are
        #: never mutated once built, so they are shared, not copied.
        self._batch_memo: Optional[Dict[DomainName, List[IPv4Address]]] = None
        #: Bumped each time a server exhausts its retry budget; resolve()
        #: uses it to tell fault-induced SERVFAILs from genuine ones.
        self._transient_failures = 0

    # -- public API -----------------------------------------------------------

    def resolve(
        self, name: "DomainName | str", rtype: RecordType = RecordType.A
    ) -> ResolutionResult:
        """Fully resolve ``name``/``rtype``, chasing CNAMEs.

        CNAME links found *inside* an answer (a server returning
        ``CNAME + A`` in one response) are attributed to the chain before
        any ``rtype`` records are accepted, so ``final_name`` and
        ``cname_targets`` are correct for single-response chains too.

        A ``SERVFAIL`` result caused by servers that stopped responding
        (retry budget exhausted) is marked ``gave_up`` — the measurement
        layer treats it as *unknown* rather than a negative observation.
        """
        return self._resolve(DomainName(name), rtype)

    def _resolve(self, qname: DomainName, rtype: RecordType) -> ResolutionResult:
        before = self._transient_failures
        result = self._resolve_chased(qname, rtype)
        if result.rcode is Rcode.SERVFAIL and self._transient_failures > before:
            result.gave_up = True
            self.metrics.incr("resolver.gave_up")
        return result

    def _resolve_chased(self, qname: DomainName, rtype: RecordType) -> ResolutionResult:
        self._resolutions.incr()
        chain: List[Tuple[DomainName, DomainName]] = []
        current = qname
        records: List[ResourceRecord] = []
        while True:
            if not any(r.name == current for r in records):
                records, rcode = self._lookup(current, rtype)
                if rcode is not Rcode.NOERROR:
                    return ResolutionResult(qname, rtype, rcode, [], chain)
            direct = [r for r in records if r.rtype is rtype and r.name == current]
            if direct:
                return ResolutionResult(qname, rtype, Rcode.NOERROR, direct, chain)
            cnames = [
                r
                for r in records
                if r.rtype is RecordType.CNAME and r.name == current
            ]
            if cnames and rtype is not RecordType.CNAME:
                target = cnames[0].target
                if any(seen == target for _, seen in chain) or target == current:
                    return ResolutionResult(qname, rtype, Rcode.SERVFAIL, [], chain)
                if len(chain) >= _MAX_CNAME_DEPTH:
                    return ResolutionResult(qname, rtype, Rcode.SERVFAIL, [], chain)
                chain.append((current, target))
                self._cname_links.incr()
                current = target
                continue
            # NODATA
            return ResolutionResult(qname, rtype, Rcode.NOERROR, [], chain)

    def resolve_many(
        self, queries: Iterable[Tuple["DomainName | str", RecordType]]
    ) -> List[ResolutionResult]:
        """Resolve a batch of (name, rtype) pairs, sharing discovery.

        Results align positionally with the input.  Answers are
        byte-identical to sequential :meth:`resolve` calls; the win is in
        *queries sent*: a per-batch zone-cut memo records every
        delegation walked, so sibling names under one zone go straight to
        the deepest known delegation instead of re-descending from the
        root — the saving the E8 benchmark counters prove out.
        """
        batch = [(DomainName(n), rt) for n, rt in queries]
        self.metrics.incr("resolver.batches")
        self.metrics.incr("resolver.batch_names", len(batch))
        fresh_memo = self._batch_memo is None
        if fresh_memo:
            self._batch_memo = {}
        try:
            return [self._resolve(n, rt) for n, rt in batch]
        finally:
            if fresh_memo:
                self._batch_memo = None

    def purge_cache(self) -> None:
        """Flush the cache (the collector's pre-run hygiene step)."""
        self.cache.purge()

    # -- checkpoint support ---------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The resolver's persistent mutable state, JSON-compatible.

        The TTL cache is deliberately absent: every study entry point
        (collector, pipeline, scanners) purges it before use, so it
        never carries across a checkpoint barrier.  What does carry is
        the query counters, the quarantine roster and the metrics
        registry.
        """
        return {
            "queries_sent": self.queries_sent,
            "transient_failures": self._transient_failures,
            "quarantine": self.quarantine.snapshot(),
            "metrics": self.metrics.snapshot(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        self.queries_sent = int(state["queries_sent"])
        self._transient_failures = int(state["transient_failures"])
        self.quarantine.restore(state["quarantine"])
        self.metrics.restore(state["metrics"])

    # -- single-name lookup ------------------------------------------------------

    def _lookup(
        self, name: DomainName, rtype: RecordType
    ) -> Tuple[List[ResourceRecord], Rcode]:
        """Records at exactly ``name`` (of rtype, or a CNAME), plus rcode."""
        cached, negative = self.cache.probe(name, rtype)
        if cached is not None:
            return cached, Rcode.NOERROR
        if negative == "NXDOMAIN":
            return [], Rcode.NXDOMAIN
        if negative == "NODATA":
            return [], Rcode.NOERROR
        return self._iterate(name, rtype, depth=0)

    def _iterate(
        self, name: DomainName, rtype: RecordType, depth: int
    ) -> Tuple[List[ResourceRecord], Rcode]:
        servers = self._closest_known_servers(name, depth)
        for _ in range(_MAX_REFERRALS):
            response = self._query_any(servers, name, rtype)
            if response is None:
                return [], Rcode.SERVFAIL
            if response.rcode is Rcode.NXDOMAIN:
                self.cache.put_negative(
                    name, rtype, "NXDOMAIN", self._negative_ttl(response)
                )
                return [], Rcode.NXDOMAIN
            if response.rcode is not Rcode.NOERROR:
                return [], response.rcode
            if response.answers:
                self.cache.put_all(response.answers)
                return list(response.answers), Rcode.NOERROR
            if response.is_referral:
                self.cache.put_all(response.authority)
                self.cache.put_all(response.additional)
                next_servers = self._servers_from_referral(response, depth)
                if not next_servers:
                    return [], Rcode.SERVFAIL
                self._referrals.incr()
                if self._batch_memo is not None:
                    self._batch_memo[self._referral_cut(response)] = next_servers
                servers = next_servers
                continue
            # NODATA
            self.cache.put_negative(
                name, rtype, "NODATA", self._negative_ttl(response)
            )
            return [], Rcode.NOERROR
        return [], Rcode.SERVFAIL

    @staticmethod
    def _negative_ttl(response: DnsResponse) -> int:
        for record in response.authority:
            if record.rtype is RecordType.SOA:
                return min(record.ttl, _DEFAULT_NEGATIVE_TTL)
        return _DEFAULT_NEGATIVE_TTL

    @staticmethod
    def _referral_cut(response: DnsResponse) -> DomainName:
        """Owner name of a referral's delegation (its NS records)."""
        for record in response.authority:
            if record.rtype is RecordType.NS:
                return record.name
        raise ResolutionError("referral without NS records")  # pragma: no cover

    # -- server selection -----------------------------------------------------------

    def _closest_known_servers(self, name: DomainName, depth: int) -> List[IPv4Address]:
        """Start from the deepest known delegation covering ``name``.

        During a :meth:`resolve_many` batch the zone-cut memo is
        consulted first at each depth: it holds the *server addresses* a
        referral handed out, so it short-circuits even when the cached NS
        set lacks usable glue.  Falls back to cached NS sets, then the
        root hints.  Reusing cached NS sets is what makes stale
        delegations live on until their (long) TTLs expire.
        """
        memo = self._batch_memo
        for zone in name.suffixes():
            if memo is not None:
                memoised = memo.get(zone)
                if memoised is not None:
                    self._zonecut_hits.incr()
                    return memoised
            addresses = self.cache.delegation_addresses(zone)
            if addresses:
                return addresses
        return list(self._root_hints)

    def _servers_from_referral(
        self, response: DnsResponse, depth: int
    ) -> List[IPv4Address]:
        glue: List[IPv4Address] = []
        ns_names = response.referral_nameservers()
        for ns_name in ns_names:
            glue.extend(response.glue_for(ns_name))
        if glue:
            return glue
        return self._nameserver_addresses(ns_names, depth)

    def _nameserver_addresses(
        self, ns_names: List[DomainName], depth: int
    ) -> List[IPv4Address]:
        """Addresses of ``ns_names``: cached, else looked up (glueless
        delegation)."""
        addresses = self.cache.addresses(ns_names)
        if addresses:
            return addresses
        if depth >= _MAX_NS_LOOKUP_DEPTH:
            return []
        for ns_name in ns_names:
            self.metrics.incr("resolver.ns_fallback_lookups")
            records, rcode = self._iterate(ns_name, RecordType.A, depth + 1)
            if rcode is Rcode.NOERROR:
                addresses.extend(
                    r.address for r in records if r.rtype is RecordType.A
                )
            if addresses:
                break
        return addresses

    # -- transport ----------------------------------------------------------------------

    def _query_any(
        self, servers: List[IPv4Address], name: DomainName, rtype: RecordType
    ) -> Optional[DnsResponse]:
        """Try servers in order; first one that answers usefully wins.

        REFUSED counts as unusable (try the next server), matching how
        real resolvers fail over when a lame delegation refuses them.
        A server that times out through its whole retry budget triggers
        the same failover; quarantined servers are deprioritised (tried
        only after every healthy server of the zone has failed).
        """
        refused = None
        preferred, deferred = self.quarantine.partition(servers)
        before = self._transient_failures
        for ip in preferred + deferred:
            response = self._query_server(ip, name, rtype)
            if response is None:
                continue
            if response.rcode is Rcode.REFUSED:
                refused = response
                continue
            if self._transient_failures > before:
                self.metrics.incr("resolver.failovers")
            return response
        return refused

    def _query_server(
        self, ip: IPv4Address, name: DomainName, rtype: RecordType
    ) -> Optional[DnsResponse]:
        """Query one server under the retry policy.

        Returns its first usable (non-SERVFAIL) response; None when the
        address is dark or the server stayed unresponsive through the
        whole retry budget (in which case it is quarantined and the
        transient-failure counter is bumped).  ``queries_sent`` counts
        logical queries — the first attempt to a non-dark address —
        exactly as the retry-free transport did; retries land in the
        ``resolver.retries`` metric.
        """
        policy = self.retry_policy
        budget = policy.budget()
        query = DnsQuery(name, rtype)
        saw_transient = False
        saw_throttle = False
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                budget.charge(policy.backoff_ms(attempt - 1, self._label, ip, name))
                if budget.exhausted:
                    self.metrics.incr("resolver.budget_exhausted")
                    break
                self.metrics.incr("resolver.retries")
            delivery = self._fabric.deliver_dns(ip, query, self.region, attempt)
            budget.charge(delivery.latency_ms)
            if delivery.outcome == "dark":
                # Nothing listens there — a deterministic condition, not
                # a transient fault; never retried, never counted.
                return None
            if attempt == 1:
                self.queries_sent += 1
                self._queries.incr()
            if delivery.outcome in ("throttled", "shed"):
                # Provider defenses, not server failure.  The verdict is
                # deterministic per (day, server, name) — retry-after
                # semantics — so same-day retries here are futile; honor
                # it and let _query_any fail over to another server.
                self.metrics.incr("resolver.throttled")
                saw_throttle = True
                break
            if delivery.outcome == "attack-outage":
                # The server is healthy; the flood drowning its packets
                # is world state with a pure per-(day, server, name)
                # verdict, so same-day retries are just as futile as a
                # throttle's.  No quarantine either: blaming the server
                # for attacker traffic would punish future days, and —
                # the verdict being keyed per qname — would couple shard
                # slices through the shared quarantine roster.
                self.metrics.incr("resolver.attack_outage")
                saw_throttle = True
                break
            response = delivery.response
            if response is not None and response.rcode is not Rcode.SERVFAIL:
                self.quarantine.release(ip)
                return response
            saw_transient = True
        if saw_transient:
            self.metrics.incr("resolver.unanswered")
            self.quarantine.quarantine(ip)
            self.metrics.incr("resolver.quarantined")
            self._transient_failures += 1
        elif saw_throttle:
            # A throttled or flooded server is healthy — quarantining it
            # would punish future days for one day's load, so only the
            # transient-failure marker is raised: if no other server
            # answers, the resolution degrades to ``gave_up`` (the
            # answer is unknown, never a fabricated negative).
            self.metrics.incr("resolver.unanswered")
            self._transient_failures += 1
        return None
