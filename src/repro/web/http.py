"""Simulated HTTP: requests, responses, and a fabric-backed client.

Requests carry a Host header and the client's source address, because
both matter to the study: edges route on Host, and origins may be
firewalled to accept only traffic from their DPS provider's ranges
(§IV-C-3).  Responses carry the landing-page URL, which the paper reads
off the through-edge response before replaying the fetch against a
candidate origin IP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..dns.name import DomainName
from ..faults.retry import RetryPolicy
from ..net.fabric import NetworkFabric
from ..net.geo import Region
from ..net.ipaddr import IPv4Address
from ..obs.metrics import MetricsRegistry

__all__ = ["HttpRequest", "HttpResponse", "HttpClient", "StatusCode"]


class StatusCode:
    """The handful of status codes the simulation uses."""

    OK = 200
    FORBIDDEN = 403
    NOT_FOUND = 404
    BAD_GATEWAY = 502


@dataclass(frozen=True)
class HttpRequest:
    """A GET request (the only method the study needs)."""

    host: DomainName
    path: str = "/"
    source_ip: Optional[IPv4Address] = None
    client_region: Optional[Region] = None

    @property
    def url(self) -> str:
        """The request URL."""
        return f"http://{self.host}{self.path}"


@dataclass
class HttpResponse:
    """A response: status, body, and a few meaningful headers."""

    status: int
    body: str = ""
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True for 200."""
        return self.status == StatusCode.OK

    @property
    def landing_url(self) -> Optional[str]:
        """Canonical landing-page URL advertised by the server, if any."""
        return self.headers.get("x-landing-url")

    @property
    def served_by(self) -> Optional[str]:
        """Identity of the serving infrastructure (edge or origin)."""
        return self.headers.get("x-served-by")


class HttpClient:
    """Issues GETs to explicit destination addresses via the fabric.

    Explicit addressing matters: the verification step connects to a raw
    IP while presenting an arbitrary Host header, exactly like the
    paper's probes.
    """

    def __init__(
        self,
        fabric: NetworkFabric,
        source_ip: Optional["IPv4Address | str"] = None,
        region: Optional[Region] = None,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._fabric = fabric
        self.source_ip = IPv4Address(source_ip) if source_ip is not None else None
        self.region = region
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: Keys this client's retry jitter.
        self._label = f"http-client-{region.name if region is not None else 'global'}"
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.requests_sent = 0

    def state_dict(self) -> Dict[str, object]:
        """Persistent mutable state (counters and metrics)."""
        return {
            "requests_sent": self.requests_sent,
            "metrics": self.metrics.snapshot(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        self.requests_sent = int(state["requests_sent"])
        self.metrics.restore(state["metrics"])

    def get(
        self,
        ip: "IPv4Address | str",
        host: "DomainName | str",
        path: str = "/",
    ) -> Optional[HttpResponse]:
        """GET ``http://host{path}`` from the server at ``ip``.

        Transient connection failures (injected loss, outages) are
        retried under the client's retry policy.  Returns None when
        nothing listens at the address, a flood drowns it for the day
        (``attack-outage``, never retried) or every attempt was dropped
        — a connection timeout at the transport level.
        """
        self.requests_sent += 1
        self.metrics.incr("http.requests")
        request = HttpRequest(
            host=DomainName(host),
            path=path,
            source_ip=self.source_ip,
            client_region=self.region,
        )
        policy = self.retry_policy
        budget = policy.budget()
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                budget.charge(policy.backoff_ms(attempt - 1, self._label, ip, host))
                if budget.exhausted:
                    self.metrics.incr("http.budget_exhausted")
                    break
                self.metrics.incr("http.retries")
            delivery = self._fabric.deliver_http(ip, request, self.region, attempt)
            budget.charge(delivery.latency_ms)
            if delivery.outcome in ("dark", "attack-outage"):
                # No listener bound, or a flood drowns the origin for the
                # whole day — deterministic, never retried.
                break
            if delivery.response is not None:
                self.metrics.incr("http.answered")
                return delivery.response
        self.metrics.incr("http.unanswered")
        return None
