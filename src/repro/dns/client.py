"""Stub DNS client: send one query straight at one server.

This is the attacker's and the scanner's tool of choice — the residual-
resolution probe does *not* use recursive resolution; it aims queries
directly at a previous DPS provider's nameservers (§III-B, §V-A-2).  The
client goes through the :class:`~repro.net.fabric.NetworkFabric`, so
anycast addresses land on the PoP matching the client's region.

Queries ride the fabric's fault-aware delivery path and retry transient
failures (timeouts and ``SERVFAIL``) under a
:class:`~repro.faults.retry.RetryPolicy`.  ``REFUSED`` is definitive —
that is the residual-resolution signal itself, never retried.  The
``queries_sent`` counter and the ``client.queries`` metric count logical
queries (first attempts); retries land in ``client.retries`` so recovery
overhead is visible separately.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..faults.retry import RetryPolicy
from ..net.fabric import NetworkFabric
from ..net.geo import Region
from ..net.ipaddr import IPv4Address
from ..obs.metrics import MetricsRegistry
from .message import DnsQuery, DnsResponse, Rcode
from .name import DomainName
from .records import RecordType

__all__ = ["DnsClient"]


class DnsClient:
    """Sends non-recursive queries from a fixed client region."""

    def __init__(
        self,
        fabric: NetworkFabric,
        region: Optional[Region] = None,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._fabric = fabric
        self.region = region
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: Keys this client's retry jitter.
        self._label = f"dns-client-{region.name if region is not None else 'global'}"
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queries_sent = 0
        #: Whether the most recent :meth:`query` was throttled or shed
        #: by provider-side defenses.  Deliberately per-query transient
        #: (reset on entry, never persisted): callers inspect it right
        #: after a query to rotate vantage points instead of hammering
        #: the same (server, region) path that just refused them.
        self.last_throttled = False

    def state_dict(self) -> Dict[str, object]:
        """Persistent mutable state (counters and metrics)."""
        return {
            "queries_sent": self.queries_sent,
            "metrics": self.metrics.snapshot(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        self.queries_sent = int(state["queries_sent"])
        self.metrics.restore(state["metrics"])

    def query(
        self,
        server_ip: "IPv4Address | str",
        qname: "DomainName | str",
        qtype: RecordType = RecordType.A,
    ) -> Optional[DnsResponse]:
        """Query one server directly, retrying transient failures.

        Returns None when every attempt times out (dark address, packet
        loss, outage) — the simulated equivalent of a timeout — or the
        last response when the server keeps answering ``SERVFAIL``.  A
        dark address or an ``attack-outage`` ends the query at once:
        both are deterministic for the day, so a retry can never succeed.

        A provider-defense ``throttled``/``shed`` delivery also returns
        None, with :attr:`last_throttled` raised: the verdict is
        deterministic per (day, server, name, region), so retrying the
        same path in-day is futile, and a shed REFUSED is synthetic —
        treating it as the residual-resolution signal would fabricate a
        record-purge observation.
        """
        self.queries_sent += 1
        self.metrics.incr("client.queries")
        self.last_throttled = False
        query = DnsQuery(DomainName(qname), qtype, recursion_desired=False)
        policy = self.retry_policy
        budget = policy.budget()
        response: Optional[DnsResponse] = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                budget.charge(
                    policy.backoff_ms(attempt - 1, self._label, server_ip, query.qname)
                )
                if budget.exhausted:
                    self.metrics.incr("client.budget_exhausted")
                    break
                self.metrics.incr("client.retries")
            delivery = self._fabric.deliver_dns(
                server_ip, query, self.region, attempt
            )
            budget.charge(delivery.latency_ms)
            if delivery.outcome in ("throttled", "shed"):
                self.last_throttled = True
                self.metrics.incr("client.throttled")
                return None
            response = delivery.response
            if response is not None and response.rcode is not Rcode.SERVFAIL:
                self.metrics.incr("client.answered")
                return response
            if delivery.outcome in ("dark", "attack-outage"):
                # Nothing listens at this address, or a flood drowns it
                # for the whole day — deterministic either way.
                break
        if response is None:
            self.metrics.incr("client.unanswered")
        else:
            self.metrics.incr("client.servfail")
        return response
