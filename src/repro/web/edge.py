"""CDN/DPS edge servers (reverse proxies).

An :class:`EdgeServer` terminates client connections at the provider and
fetches content from the customer's configured origin, caching it.  The
customer table (Host → origin IP) is owned by the provider and shared by
all its edges; when a customer terminates service the provider removes
its entry, every edge flushes the host from its own cache, and the fleet
stops proxying for that host.

Edge fetches originate from the edge's own address, which sits inside
the provider's announced ranges — so DPS-only origin firewalls admit
them while direct probes are dropped.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..dns.name import DomainName
from ..net.fabric import NetworkFabric
from ..net.ipaddr import IPv4Address
from .http import HttpClient, HttpRequest, HttpResponse, StatusCode

__all__ = ["EdgeServer"]


class EdgeServer:
    """One edge (PoP-resident reverse proxy) of a provider.

    ``origins`` is the customer table to proxy by; a provider passes the
    one it owns to every edge.
    """

    def __init__(
        self,
        provider_name: str,
        ip: "IPv4Address | str",
        fabric: NetworkFabric,
        origins: Dict[DomainName, IPv4Address],
        cache_enabled: bool = True,
    ) -> None:
        self.provider_name = provider_name
        self.ip = IPv4Address(ip)
        self._fabric = fabric
        self._origins = origins
        self._cache: Dict[Tuple[DomainName, str], HttpResponse] = {}
        self.cache_enabled = cache_enabled
        self.requests_served = 0
        self.cache_hits = 0

    # -- customer table ---------------------------------------------------

    def remove_origin(self, host: "DomainName | str") -> bool:
        """Stop proxying for ``host``; flush its cache entries.

        Only this edge's cache is flushed: an edge sharing the table
        stops proxying too, but must be told to drop what it cached.
        """
        host_name = DomainName(host)
        removed = self._origins.pop(host_name, None) is not None
        for key in [k for k in self._cache if k[0] == host_name]:
            del self._cache[key]
        return removed

    def origin_for(self, host: "DomainName | str") -> Optional[IPv4Address]:
        """The configured origin address for a host, if any."""
        return self._origins.get(DomainName(host))

    # -- proxying ------------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve from cache or fetch from the configured origin."""
        self.requests_served += 1
        origin_ip = self._origins.get(request.host)
        if origin_ip is None:
            return HttpResponse(
                status=StatusCode.NOT_FOUND,
                headers={"x-served-by": f"edge:{self.provider_name}"},
            )
        cache_key = (request.host, request.path)
        if self.cache_enabled and cache_key in self._cache:
            self.cache_hits += 1
            return self._stamp(self._cache[cache_key])
        upstream = HttpClient(self._fabric, source_ip=self.ip).get(
            origin_ip, request.host, request.path
        )
        if upstream is None:
            return HttpResponse(
                status=StatusCode.BAD_GATEWAY,
                headers={"x-served-by": f"edge:{self.provider_name}"},
            )
        if self.cache_enabled and upstream.ok:
            self._cache[cache_key] = upstream
        return self._stamp(upstream)

    def flush_cache(self) -> None:
        """Drop every cached object."""
        self._cache.clear()

    def _stamp(self, upstream: HttpResponse) -> HttpResponse:
        headers = dict(upstream.headers)
        headers["x-served-by"] = f"edge:{self.provider_name}"
        return HttpResponse(status=upstream.status, body=upstream.body, headers=headers)
