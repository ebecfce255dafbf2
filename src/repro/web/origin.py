"""Origin web servers.

An :class:`OriginServer` is the machine the DPS is supposed to hide.  It
serves the site's landing page and models the two real-world behaviours
that blunt HTML verification (§IV-C-3):

* **dynamic meta** — some sites emit per-request meta attributes
  (timestamps, request tokens), so two fetches never compare equal;
* **DPS-only firewalls** — some origins accept connections only from
  their provider's address ranges, so a direct probe gets no page at all.

Both produce false *negatives* in verification, which is why the paper's
verified-origin counts are a lower bound.

A world holds one origin per site but fetches few landing pages, so an
origin built without a document keeps only its rank and renders
:func:`default_document` on its first request.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..dns.name import DomainName
from ..net.ipaddr import IPv4Address, IPv4Prefix
from .html import HtmlDocument
from .http import HttpRequest, HttpResponse, StatusCode

__all__ = ["OriginServer", "default_document"]


def default_document(apex: "DomainName | str", rank: int) -> HtmlDocument:
    """A landing page distinctive enough for HTML verification."""
    apex_name = DomainName(apex)
    return HtmlDocument(
        title=f"{apex_name} — home",
        meta={
            "description": f"Landing page of {apex_name} (rank {rank})",
            "generator": "sitebuilder/2.4",
            "site-id": f"{apex_name}#{rank}",
        },
        body=f"<h1>Welcome to {apex_name}</h1>",
    )


class OriginServer:
    """Serves one website's landing page from one IP address.

    ``document`` is the page to serve; without one, the server serves
    :func:`default_document` for its domain and ``rank``, built when it
    is first asked for.
    """

    __slots__ = (
        "domain",
        "ip",
        "_document",
        "_rank",
        "dynamic_meta_keys",
        "firewall_allow",
        "landing_path",
        "requests_served",
        "_request_counter",
    )

    def __init__(
        self,
        domain: "DomainName | str",
        ip: "IPv4Address | str",
        document: Optional[HtmlDocument] = None,
        dynamic_meta_keys: Iterable[str] = (),
        firewall_allow: Optional[Iterable["IPv4Prefix | str"]] = None,
        landing_path: str = "/",
        rank: int = 0,
    ) -> None:
        self.domain = DomainName(domain)
        self.ip = IPv4Address(ip)
        self._document = document
        self._rank = rank
        self.dynamic_meta_keys = tuple(dynamic_meta_keys)
        self.firewall_allow: Optional[List[IPv4Prefix]] = (
            [IPv4Prefix(p) for p in firewall_allow] if firewall_allow is not None else None
        )
        self.landing_path = landing_path
        self.requests_served = 0
        self._request_counter = 0

    @property
    def document(self) -> HtmlDocument:
        """The landing page (without dynamic meta)."""
        if self._document is None:
            self._document = default_document(self.domain, self._rank)
        return self._document

    # -- configuration -----------------------------------------------------

    def move_to(self, new_ip: "IPv4Address | str") -> IPv4Address:
        """Change the origin's address (the admin's IP-rotation practice).

        The caller (the world model) is responsible for re-registering
        the server on the fabric; this just updates the identity.
        """
        self.ip = IPv4Address(new_ip)
        return self.ip

    def set_firewall(self, prefixes: Optional[Iterable["IPv4Prefix | str"]]) -> None:
        """Restrict (or open, with None) which sources may connect."""
        self.firewall_allow = (
            [IPv4Prefix(p) for p in prefixes] if prefixes is not None else None
        )

    # -- serving ------------------------------------------------------------

    def _firewall_permits(self, source: Optional[IPv4Address]) -> bool:
        if self.firewall_allow is None:
            return True
        if source is None:
            return False
        return any(source in prefix for prefix in self.firewall_allow)

    def handle_request(self, request: HttpRequest) -> Optional[HttpResponse]:
        """Serve the landing page.

        Returns None (transport-level drop) when the firewall rejects
        the source — from the prober's perspective indistinguishable
        from an unused address, which is exactly the point.
        """
        if not self._firewall_permits(request.source_ip):
            return None
        self.requests_served += 1
        if request.path not in ("/", self.landing_path):
            return HttpResponse(status=StatusCode.NOT_FOUND)
        self._request_counter += 1
        document = self._materialise_document()
        return HttpResponse(
            status=StatusCode.OK,
            body=document.render(),
            headers={
                "x-landing-url": f"http://{self.domain}{self.landing_path}",
                "x-served-by": f"origin:{self.domain}",
            },
        )

    def _materialise_document(self) -> HtmlDocument:
        """The document as served right now, with dynamic meta filled in."""
        document = self.document
        meta = dict(document.meta)
        for key in self.dynamic_meta_keys:
            meta[key] = f"req-{self._request_counter}"
        return HtmlDocument(document.title, meta, document.body)
