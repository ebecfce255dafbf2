"""Tests for origin servers, edge reverse proxies, and the HTTP client."""

import pytest

from repro.dns.name import DomainName
from repro.net.fabric import NetworkFabric
from repro.net.ipaddr import IPv4Address, IPv4Prefix
from repro.web.edge import EdgeServer
from repro.web.html import HtmlDocument
from repro.web.http import HttpClient, HttpRequest, StatusCode
from repro.web.origin import OriginServer, default_document


def _doc(title="Example — home"):
    return HtmlDocument(title=title, meta={"site-id": "example#1"})


@pytest.fixture
def web():
    fabric = NetworkFabric()
    origin = OriginServer("example.com", "172.16.0.10", _doc())
    fabric.register_http(origin.ip, origin)
    return fabric, origin


class TestOriginServer:
    def test_serves_landing_page(self, web):
        fabric, origin = web
        response = HttpClient(fabric).get(origin.ip, "example.com")
        assert response.ok
        assert HtmlDocument.parse(response.body).title == "Example — home"

    def test_landing_url_header(self, web):
        fabric, origin = web
        response = HttpClient(fabric).get(origin.ip, "example.com")
        assert response.landing_url == "http://example.com/"
        assert response.served_by == "origin:example.com"

    def test_unknown_path_404(self, web):
        fabric, origin = web
        response = HttpClient(fabric).get(origin.ip, "example.com", "/missing")
        assert response.status == StatusCode.NOT_FOUND

    def test_unbound_address_is_none(self, web):
        fabric, _ = web
        assert HttpClient(fabric).get("172.16.0.99", "example.com") is None

    def test_dynamic_meta_changes_per_request(self):
        fabric = NetworkFabric()
        origin = OriginServer(
            "example.com", "172.16.0.10", _doc(), dynamic_meta_keys=("csrf-token",)
        )
        fabric.register_http(origin.ip, origin)
        client = HttpClient(fabric)
        first = HtmlDocument.parse(client.get(origin.ip, "example.com").body)
        second = HtmlDocument.parse(client.get(origin.ip, "example.com").body)
        assert first.title == second.title
        assert not first.matches(second)  # dynamic meta defeats matching

    def test_move_to_changes_identity(self, web):
        _, origin = web
        origin.move_to("172.16.0.50")
        assert origin.ip == IPv4Address("172.16.0.50")

    def test_origin_has_no_instance_dict(self, web):
        _, origin = web
        assert not hasattr(origin, "__dict__")

    def test_default_document_is_built_on_first_request(self):
        fabric = NetworkFabric()
        origin = OriginServer("example.com", "172.16.0.10", rank=42)
        fabric.register_http(origin.ip, origin)
        assert origin._document is None
        served = HtmlDocument.parse(HttpClient(fabric).get(origin.ip, "example.com").body)
        expected = default_document("example.com", 42)
        assert served.matches(expected)
        assert origin.document is origin.document

    def test_explicit_document_is_served(self, web):
        fabric, origin = web
        served = HtmlDocument.parse(HttpClient(fabric).get(origin.ip, "example.com").body)
        assert served.matches(_doc())
        assert origin.document == _doc()


class TestFirewall:
    def test_firewalled_origin_drops_unknown_sources(self):
        fabric = NetworkFabric()
        origin = OriginServer(
            "example.com", "172.16.0.10", _doc(),
            firewall_allow=[IPv4Prefix("10.0.0.0/8")],
        )
        fabric.register_http(origin.ip, origin)
        outside = HttpClient(fabric, source_ip="198.18.0.1")
        inside = HttpClient(fabric, source_ip="10.1.2.3")
        assert outside.get(origin.ip, "example.com") is None
        assert inside.get(origin.ip, "example.com").ok

    def test_firewall_drops_sourceless_requests(self):
        fabric = NetworkFabric()
        origin = OriginServer(
            "example.com", "172.16.0.10", _doc(),
            firewall_allow=[IPv4Prefix("10.0.0.0/8")],
        )
        fabric.register_http(origin.ip, origin)
        assert HttpClient(fabric).get(origin.ip, "example.com") is None

    def test_set_firewall_none_opens_up(self):
        fabric = NetworkFabric()
        origin = OriginServer(
            "example.com", "172.16.0.10", _doc(),
            firewall_allow=[IPv4Prefix("10.0.0.0/8")],
        )
        fabric.register_http(origin.ip, origin)
        origin.set_firewall(None)
        assert HttpClient(fabric, source_ip="198.18.0.1").get(origin.ip, "example.com").ok


class TestEdgeServer:
    def _edge_setup(self, firewall=False):
        fabric = NetworkFabric()
        allow = [IPv4Prefix("10.0.0.0/8")] if firewall else None
        origin = OriginServer("example.com", "172.16.0.10", _doc(), firewall_allow=allow)
        fabric.register_http(origin.ip, origin)
        edge = EdgeServer("cdnco", "10.0.0.1", fabric, {DomainName("example.com"): origin.ip})
        fabric.register_http(edge.ip, edge)
        return fabric, origin, edge

    def test_proxies_configured_host(self):
        fabric, origin, edge = self._edge_setup()
        response = HttpClient(fabric).get(edge.ip, "example.com")
        assert response.ok
        assert response.served_by == "edge:cdnco"
        assert HtmlDocument.parse(response.body).title == "Example — home"

    def test_unknown_host_404(self):
        fabric, _, edge = self._edge_setup()
        response = HttpClient(fabric).get(edge.ip, "other.com")
        assert response.status == StatusCode.NOT_FOUND

    def test_edge_passes_origin_firewall(self):
        # Edge source IP (10.x) is inside the allowed DPS ranges; a
        # direct probe is not — the exact asymmetry HTML verification hits.
        fabric, origin, edge = self._edge_setup(firewall=True)
        via_edge = HttpClient(fabric).get(edge.ip, "example.com")
        direct = HttpClient(fabric, source_ip="198.18.0.1").get(origin.ip, "example.com")
        assert via_edge.ok
        assert direct is None

    def test_cache_hit_avoids_origin(self):
        fabric, origin, edge = self._edge_setup()
        client = HttpClient(fabric)
        client.get(edge.ip, "example.com")
        served_before = origin.requests_served
        client.get(edge.ip, "example.com")
        assert origin.requests_served == served_before
        assert edge.cache_hits == 1

    def test_remove_origin_stops_proxying_and_flushes(self):
        fabric, origin, edge = self._edge_setup()
        client = HttpClient(fabric)
        client.get(edge.ip, "example.com")
        assert edge.remove_origin("example.com")
        response = client.get(edge.ip, "example.com")
        assert response.status == StatusCode.NOT_FOUND

    def test_bad_gateway_when_origin_unreachable(self):
        fabric, origin, edge = self._edge_setup()
        fabric.unregister_http(origin.ip)
        edge.flush_cache()
        response = HttpClient(fabric).get(edge.ip, "example.com")
        assert response.status == StatusCode.BAD_GATEWAY

    def test_flush_cache(self):
        fabric, origin, edge = self._edge_setup()
        client = HttpClient(fabric)
        client.get(edge.ip, "example.com")
        edge.flush_cache()
        client.get(edge.ip, "example.com")
        assert origin.requests_served == 2


class TestHttpRequest:
    def test_url_property(self):
        request = HttpRequest(host=DomainName("example.com"), path="/x")
        assert request.url == "http://example.com/x"

    def test_request_counter(self):
        fabric = NetworkFabric()
        client = HttpClient(fabric)
        client.get("10.0.0.1", "a.com")
        client.get("10.0.0.1", "b.com")
        assert client.requests_sent == 2
