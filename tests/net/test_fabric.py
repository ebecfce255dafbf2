"""Tests for the network fabric (IP → handler dispatch, anycast, planes)."""

import pytest

from repro.clock import SimulationClock
from repro.dns.message import DnsQuery
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.errors import ConfigurationError, RoutingError
from repro.net.anycast import AnycastNetwork
from repro.net.fabric import NetworkFabric
from repro.net.geo import PointOfPresence, region
from repro.net.ipaddr import IPv4Address
from repro.rng import SeededRng
from repro.scenario import PLANES
from repro.traffic import TRAFFIC_PROFILES, TrafficPlane


class _Server:
    def __init__(self, tag):
        self.tag = tag


class TestUnicastDns:
    def test_register_and_lookup(self):
        fabric = NetworkFabric()
        server = _Server("a")
        fabric.register_dns("10.0.0.1", server)
        assert fabric.dns_server_at("10.0.0.1") is server

    def test_unbound_address_returns_none(self):
        assert NetworkFabric().dns_server_at("10.0.0.1") is None

    def test_double_bind_rejected(self):
        fabric = NetworkFabric()
        fabric.register_dns("10.0.0.1", _Server("a"))
        with pytest.raises(ConfigurationError):
            fabric.register_dns("10.0.0.1", _Server("b"))

    def test_unregister(self):
        fabric = NetworkFabric()
        fabric.register_dns("10.0.0.1", _Server("a"))
        fabric.unregister_dns("10.0.0.1")
        assert fabric.dns_server_at("10.0.0.1") is None

    def test_unregister_unbound_raises(self):
        with pytest.raises(RoutingError):
            NetworkFabric().unregister_dns("10.0.0.1")


def _two_pop_network():
    pops = [
        PointOfPresence("pop-london", region("london")),
        PointOfPresence("pop-tokyo", region("tokyo")),
    ]
    return AnycastNetwork("net", pops)


class TestAnycastDns:
    def test_region_selects_pop(self):
        fabric = NetworkFabric()
        network = _two_pop_network()
        london, tokyo = _Server("london"), _Server("tokyo")
        fabric.register_dns_anycast(
            "10.0.0.1", network, {"pop-london": london, "pop-tokyo": tokyo}
        )
        assert fabric.dns_server_at("10.0.0.1", region("paris")) is london
        assert fabric.dns_server_at("10.0.0.1", region("seoul")) is tokyo

    def test_no_region_deterministic_fallback(self):
        fabric = NetworkFabric()
        network = _two_pop_network()
        servers = {"pop-london": _Server("l"), "pop-tokyo": _Server("t")}
        fabric.register_dns_anycast("10.0.0.1", network, servers)
        picks = {fabric.dns_server_at("10.0.0.1").tag for _ in range(5)}
        assert len(picks) == 1

    def test_missing_pop_server_rejected(self):
        fabric = NetworkFabric()
        network = _two_pop_network()
        with pytest.raises(ConfigurationError):
            fabric.register_dns_anycast("10.0.0.1", network, {"pop-london": _Server("l")})

    def test_anycast_conflicts_with_unicast(self):
        fabric = NetworkFabric()
        fabric.register_dns("10.0.0.1", _Server("a"))
        with pytest.raises(ConfigurationError):
            fabric.register_dns_anycast(
                "10.0.0.1",
                _two_pop_network(),
                {"pop-london": _Server("l"), "pop-tokyo": _Server("t")},
            )

    def test_unregister_anycast(self):
        fabric = NetworkFabric()
        fabric.register_dns_anycast(
            "10.0.0.1",
            _two_pop_network(),
            {"pop-london": _Server("l"), "pop-tokyo": _Server("t")},
        )
        fabric.unregister_dns("10.0.0.1")
        assert fabric.dns_server_at("10.0.0.1") is None


class TestHttpPlane:
    def test_register_and_lookup(self):
        fabric = NetworkFabric()
        handler = _Server("web")
        fabric.register_http("10.0.0.2", handler)
        assert fabric.http_handler_at("10.0.0.2") is handler

    def test_http_and_dns_planes_independent(self):
        fabric = NetworkFabric()
        fabric.register_dns("10.0.0.1", _Server("dns"))
        fabric.register_http("10.0.0.1", _Server("http"))
        assert fabric.dns_server_at("10.0.0.1").tag == "dns"
        assert fabric.http_handler_at("10.0.0.1").tag == "http"

    def test_http_unregister(self):
        fabric = NetworkFabric()
        fabric.register_http("10.0.0.2", _Server("web"))
        fabric.unregister_http("10.0.0.2")
        assert fabric.http_handler_at("10.0.0.2") is None

    def test_http_unregister_unbound_raises(self):
        with pytest.raises(RoutingError):
            NetworkFabric().unregister_http("10.0.0.2")

    def test_http_double_bind_rejected(self):
        fabric = NetworkFabric()
        fabric.register_http("10.0.0.2", _Server("a"))
        with pytest.raises(ConfigurationError):
            fabric.register_http("10.0.0.2", _Server("b"))

    def test_http_anycast(self):
        fabric = NetworkFabric()
        network = _two_pop_network()
        london, tokyo = _Server("l"), _Server("t")
        fabric.register_http_anycast(
            "10.0.0.3", network, {"pop-london": london, "pop-tokyo": tokyo}
        )
        assert fabric.http_handler_at("10.0.0.3", region("madrid")) is london


class _Verdict:
    def __init__(self, outcome, latency_ms=0):
        self.outcome = outcome
        self.response = None
        self.latency_ms = latency_ms


class _StubPlane:
    """Answers every delivery with one fixed verdict (None passes)."""

    traffic_surge = 1.0

    def __init__(self, verdict):
        self.verdict = verdict
        self.consulted = 0

    def admit_dns(self, address, query, region, attempt=1):
        self.consulted += 1
        return self.verdict

    def admit_http(self, address, host, region, attempt=1):
        self.consulted += 1
        return self.verdict


class _Answering:
    def handle_query(self, query, client_region=None):
        return "answer"

    def handle_request(self, request):
        return "page"


def _rank(field):
    return [kind.field for kind in PLANES].index(field)


def _with_planes(**stubs):
    """A fabric with stub planes installed in reverse rank order, so
    only the ranks can put them in consultation order."""
    fabric = NetworkFabric()
    fabric.register_dns("10.0.0.1", _Answering())
    fabric.register_http("10.0.0.1", _Answering())
    for field in sorted(stubs, key=_rank, reverse=True):
        fabric.install(field, stubs[field], _rank(field))
    return fabric


class TestPlaneOrder:
    def test_consulted_in_scenario_plane_order(self):
        fabric = _with_planes(
            traffic=_StubPlane(None), attacks=_StubPlane(None), fault=_StubPlane(None)
        )
        assert list(fabric.planes) == ["fault", "attacks", "traffic"]

    def test_fault_drop_preempts_attack_outage_preempts_throttle(self):
        traffic = _StubPlane(_Verdict("throttled", 250))
        attacks = _StubPlane(_Verdict("attack-outage", 90))
        fault = _StubPlane(_Verdict("loss", 0))
        fabric = _with_planes(traffic=traffic, attacks=attacks, fault=fault)
        assert fabric.deliver_dns("10.0.0.1", object()).outcome == "loss"
        assert (attacks.consulted, traffic.consulted) == (0, 0)

        fault.verdict = None
        assert fabric.deliver_dns("10.0.0.1", object()).outcome == "attack-outage"
        assert traffic.consulted == 0

        attacks.verdict = None
        delivery = fabric.deliver_dns("10.0.0.1", object())
        assert (delivery.outcome, delivery.latency_ms) == ("throttled", 250)

    def test_delivering_fault_latency_adds_to_a_later_drop(self):
        fabric = _with_planes(
            fault=_StubPlane(_Verdict("deliver", 40)),
            traffic=_StubPlane(_Verdict("throttled", 250)),
        )
        delivery = fabric.deliver_dns("10.0.0.1", object())
        assert (delivery.outcome, delivery.latency_ms) == ("throttled", 290)

    def test_delivering_verdicts_only_add_latency(self):
        fabric = _with_planes(
            fault=_StubPlane(_Verdict("deliver", 40)),
            attacks=_StubPlane(_Verdict("deliver", 2)),
        )
        delivery = fabric.deliver_dns("10.0.0.1", object())
        assert delivery == ("answer", "delivered", 42)
        assert fabric.deliver_http("10.0.0.1", object()) == ("page", "delivered", 42)

    def test_traffic_plane_has_no_say_over_http(self):
        profile = TRAFFIC_PROFILES["flood"]
        address = IPv4Address("10.0.0.1")
        plane = TrafficPlane(
            profile, SimulationClock(), SeededRng(7).fork("t"), {"cf": [address]}
        )
        plane.restore_state(
            dict(
                plane.state_dict(),
                breakers=[[str(address), "open", 0, 1, 10]],
            )
        )
        fabric = _with_planes(traffic=plane)
        query = DnsQuery(DomainName("www.example.com"), RecordType.A)
        assert fabric.deliver_dns(address, query).outcome == "shed"
        assert fabric.deliver_http(address, object()).outcome == "delivered"

    def test_reinstalling_a_plane_replaces_it(self):
        fabric = _with_planes(fault=_StubPlane(_Verdict("loss")))
        fabric.install("fault", _StubPlane(None), _rank("fault"))
        assert fabric.deliver_dns("10.0.0.1", object()).outcome == "delivered"
        assert list(fabric.planes) == ["fault"]
