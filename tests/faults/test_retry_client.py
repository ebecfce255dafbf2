"""Retry/backoff behaviour of the DNS/HTTP clients and the resolver.

Also the PR's bugfix proof: unanswered (None) outcomes are recorded in
the MetricsRegistry, and retries are counted separately from first
attempts (``queries_sent`` keeps its fault-free meaning).
"""

from repro.attacks.plane import AttackVerdict
from repro.clock import SimulationClock
from repro.dns.client import DnsClient
from repro.dns.message import DnsResponse, Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.dns.resolver import RecursiveResolver
from repro.faults import FaultKind, FaultPlan, FaultRule, RetryPolicy
from repro.net.fabric import NetworkFabric
from repro.net.ipaddr import IPv4Address
from repro.obs.metrics import MetricsRegistry
from repro.web.http import HttpClient, HttpResponse, StatusCode

SERVER_IP = IPv4Address("10.0.0.53")
DARK_IP = IPv4Address("10.0.0.99")
WWW = DomainName("www.example.com")


class NxdomainServer:
    """Answers every query NXDOMAIN (a usable, non-transient answer)."""

    def __init__(self):
        self.queries = 0

    def handle_query(self, query, client_region=None):
        self.queries += 1
        return DnsResponse.nxdomain(query)


class ServfailServer:
    """A genuinely broken server: SERVFAIL on every query."""

    def handle_query(self, query, client_region=None):
        return DnsResponse.servfail(query)


class OkHandler:
    def __init__(self):
        self.requests = 0

    def handle_request(self, request):
        self.requests += 1
        return HttpResponse(StatusCode.OK, body="hello")


class FloodedPlane:
    """Drowns every delivery, as the attack plane does for a flood-day."""

    traffic_surge = 1.0

    def admit_dns(self, address, query, region, attempt=1):
        return AttackVerdict("attack-outage", None, 90)

    def admit_http(self, address, host, region, attempt=1):
        return AttackVerdict("attack-outage", None, 90)


def install(fabric, rules, cap=None):
    plan = FaultPlan(
        seed=3,
        clock=SimulationClock(),
        rules=rules,
        max_failed_attempts=cap,
    )
    fabric.install("fault", plan, 0)
    return plan


class TestDnsClientRetry:
    def test_retries_through_injected_servfail(self, fabric):
        fabric.register_dns(SERVER_IP, NxdomainServer())
        install(fabric, [FaultRule(FaultKind.SERVFAIL, probability=1.0)], cap=2)
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        response = client.query(SERVER_IP, WWW, RecordType.A)
        assert response is not None and response.rcode is Rcode.NXDOMAIN
        # One logical query, two retries: counted separately.
        assert client.queries_sent == 1
        assert metrics.value("client.queries") == 1
        assert metrics.value("client.retries") == 2
        assert metrics.value("client.answered") == 1

    def test_unanswered_recorded_in_metrics(self, fabric):
        fabric.register_dns(SERVER_IP, NxdomainServer())
        install(fabric, [FaultRule(FaultKind.OUTAGE)])
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        assert client.query(SERVER_IP, WWW) is None
        assert metrics.value("client.unanswered") == 1

    def test_dark_address_not_retried(self, fabric):
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        assert client.query(DARK_IP, WWW) is None
        # Deterministic condition: one attempt, no retries.
        assert metrics.value("client.retries") == 0
        assert metrics.value("client.unanswered") == 1

    def test_persistent_servfail_returned_after_budget(self, fabric):
        fabric.register_dns(SERVER_IP, ServfailServer())
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        response = client.query(SERVER_IP, WWW)
        assert response is not None and response.rcode is Rcode.SERVFAIL
        assert metrics.value("client.servfail") == 1
        assert metrics.value("client.retries") == client.retry_policy.max_attempts - 1

    def test_attack_outage_not_retried(self, fabric):
        server = NxdomainServer()
        fabric.register_dns(SERVER_IP, server)
        fabric.install("attacks", FloodedPlane(), 1)
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        assert client.query(SERVER_IP, WWW) is None
        # The flood's verdict holds for the whole day: no retries, and
        # no throttle signal for the scanner's vantage rotation.
        assert metrics.value("client.retries") == 0
        assert not client.last_throttled
        assert metrics.value("client.unanswered") == 1
        assert server.queries == 0

    def test_no_retry_policy_gives_single_attempt(self, fabric):
        fabric.register_dns(SERVER_IP, NxdomainServer())
        install(fabric, [FaultRule(FaultKind.LOSS, probability=1.0)])
        metrics = MetricsRegistry()
        client = DnsClient(
            fabric, retry_policy=RetryPolicy.no_retry(), metrics=metrics
        )
        assert client.query(SERVER_IP, WWW) is None
        assert metrics.value("client.retries") == 0


class TestHttpClientRetry:
    def test_retries_through_loss(self, fabric):
        handler = OkHandler()
        fabric.register_http(SERVER_IP, handler)
        install(fabric, [FaultRule(FaultKind.LOSS, probability=1.0, plane="http")], cap=2)
        metrics = MetricsRegistry()
        client = HttpClient(fabric, metrics=metrics)
        response = client.get(SERVER_IP, WWW)
        assert response is not None and response.ok
        assert handler.requests == 1
        assert client.requests_sent == 1
        assert metrics.value("http.retries") == 2
        assert metrics.value("http.answered") == 1

    def test_unanswered_recorded(self, fabric):
        fabric.register_http(SERVER_IP, OkHandler())
        install(fabric, [FaultRule(FaultKind.OUTAGE, plane="http")])
        metrics = MetricsRegistry()
        client = HttpClient(fabric, metrics=metrics)
        assert client.get(SERVER_IP, WWW) is None
        assert metrics.value("http.unanswered") == 1

    def test_dark_address_not_retried(self, fabric):
        metrics = MetricsRegistry()
        client = HttpClient(fabric, metrics=metrics)
        assert client.get(DARK_IP, WWW) is None
        assert metrics.value("http.retries") == 0

    def test_attack_outage_not_retried(self, fabric):
        handler = OkHandler()
        fabric.register_http(SERVER_IP, handler)
        fabric.install("attacks", FloodedPlane(), 1)
        metrics = MetricsRegistry()
        client = HttpClient(fabric, metrics=metrics)
        assert client.get(SERVER_IP, WWW) is None
        assert metrics.value("http.retries") == 0
        assert metrics.value("http.unanswered") == 1
        assert handler.requests == 0


class TestResolverFailover:
    def make_resolver(self, fabric, metrics=None):
        return RecursiveResolver(
            fabric,
            SimulationClock(),
            root_hints=[SERVER_IP],
            metrics=metrics,
        )

    def test_failover_past_unresponsive_server(self, fabric):
        good_ip = IPv4Address("10.0.0.54")
        fabric.register_dns(SERVER_IP, ServfailServer())
        fabric.register_dns(good_ip, NxdomainServer())
        metrics = MetricsRegistry()
        resolver = self.make_resolver(fabric, metrics)
        response = resolver._query_any([SERVER_IP, good_ip], WWW, RecordType.A)
        assert response is not None and response.rcode is Rcode.NXDOMAIN
        # The broken server exhausted its budget, was quarantined, and
        # the resolver failed over to the healthy one.
        assert SERVER_IP in resolver.quarantine
        assert metrics.value("resolver.failovers") == 1
        assert metrics.value("resolver.unanswered") == 1
        assert metrics.value("resolver.quarantined") == 1
        assert metrics.value("resolver.retries") == resolver.retry_policy.max_attempts - 1
        # queries_sent counts logical queries only (one per server).
        assert resolver.queries_sent == 2

    def test_success_releases_quarantine(self, fabric):
        server = NxdomainServer()
        fabric.register_dns(SERVER_IP, server)
        resolver = self.make_resolver(fabric)
        resolver.quarantine.quarantine(SERVER_IP)
        # Re-probe not due yet, but it is the only server of the zone,
        # so it is still tried as a last resort — and released.
        response = resolver._query_any([SERVER_IP], WWW, RecordType.A)
        assert response is not None
        assert SERVER_IP not in resolver.quarantine

    def test_gave_up_marks_resolution(self, world_factory):
        world = world_factory(population_size=60, seed=9)
        world.install_faults(
            FaultPlan(
                seed=world.rng.fork("gave-up-test").seed,
                clock=world.clock,
                rules=[FaultRule(FaultKind.OUTAGE, plane="dns")],
            )
        )
        metrics = MetricsRegistry()
        resolver = world.make_resolver(metrics=metrics)
        result = resolver.resolve(world.population[0].www, RecordType.A)
        assert result.rcode is Rcode.SERVFAIL
        assert result.gave_up
        assert metrics.value("resolver.gave_up") == 1

    def test_fault_free_resolution_never_gives_up(self, shared_world):
        resolver = shared_world.make_resolver()
        result = resolver.resolve(shared_world.population[0].www, RecordType.A)
        assert not result.gave_up
        assert resolver.metrics.value("resolver.retries") == 0
        assert len(resolver.quarantine) == 0


class TestKeyedBackoff:
    def test_jitter_is_a_function_of_the_retry(self):
        policy = RetryPolicy()
        key = ("resolver-london", SERVER_IP, WWW)
        backoffs = [policy.backoff_ms(n, *key) for n in (1, 2, 3)]
        # The same retry gets the same backoff whatever was drawn before.
        assert [policy.backoff_ms(n, *key) for n in (3, 2, 1)] == backoffs[::-1]
        for n, ms in enumerate(backoffs, start=1):
            base = policy.base_backoff_ms * 2 ** (n - 1)
            assert base <= ms <= base * (1 + policy.jitter_fraction)
        # Different destinations spread out (no thundering herd).
        spread = {
            policy.backoff_ms(1, "resolver-london", f"10.0.0.{low}", WWW)
            for low in range(1, 30)
        }
        assert len(spread) > 1
        assert RetryPolicy(jitter_fraction=0.0).backoff_ms(2, *key) == 400
