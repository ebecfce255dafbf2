"""Tests for the DPS provider: onboarding, pause/resume, termination,
residual resolution, and purging."""

import pytest

from repro.clock import SECONDS_PER_DAY
from repro.dns.client import DnsClient
from repro.dns.message import Rcode
from repro.dns.records import RecordType
from repro.dps.plans import PlanTier
from repro.dps.portal import CustomerStatus, ReroutingMethod
from repro.dps.residual_policy import RefuseAfterTermination, TrackAndCompare
from repro.errors import PlanError, PortalError
from repro.net.ipaddr import IPv4Address
from repro.web.html import HtmlDocument
from repro.web.http import HttpClient
from repro.web.origin import OriginServer


ORIGIN = IPv4Address("172.16.0.10")
WWW = "www.example.com"


def _query_ns(mini, provider, name=WWW):
    client = DnsClient(mini.fabric)
    fleet = provider.customer_fleet or provider.infra_fleet
    ns_ip = fleet.all_addresses()[0]
    return client.query(ns_ip, name, RecordType.A)


class TestOnboarding:
    def test_ns_onboard_returns_two_nameservers(self, mini, cloudflare_like):
        instructions = cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        assert len(instructions.nameservers) == 2
        assert all("ns.cloudflare.com" in str(n) for n in instructions.nameservers)

    def test_ns_onboard_serves_edge_address(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        response = _query_ns(mini, cloudflare_like)
        assert response.is_answer
        address = response.answers[0].address
        assert any(address in p for p in cloudflare_like.prefixes)

    def test_cname_onboard_assigns_unpredictable_canonical(self, mini, cloudflare_like):
        a = cloudflare_like.onboard(
            WWW, ORIGIN, ReroutingMethod.CNAME_BASED, PlanTier.BUSINESS
        )
        b = cloudflare_like.onboard(
            "www.other.com", ORIGIN, ReroutingMethod.CNAME_BASED, PlanTier.ENTERPRISE
        )
        assert a.cname != b.cname
        assert "cloudflare" in str(a.cname)

    def test_cloudflare_cname_needs_paid_plan(self, mini, cloudflare_like):
        with pytest.raises(PlanError):
            cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.CNAME_BASED, PlanTier.FREE)

    def test_unsupported_rerouting_rejected(self, mini, incapsula_like):
        with pytest.raises(PortalError):
            incapsula_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)

    def test_double_onboard_rejected(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        with pytest.raises(PortalError):
            cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)

    def test_a_based_onboard_returns_edge_ip(self, mini):
        provider = mini.build_provider(
            name="dosarrest",
            infra_domain="dosarrest.com",
            as_numbers=[19324],
            rerouting_methods=[ReroutingMethod.A_BASED],
            ns_host_suffix=None,
            num_customer_nameservers=0,
        )
        instructions = provider.onboard(WWW, ORIGIN, ReroutingMethod.A_BASED)
        assert instructions.edge_ip is not None
        assert any(instructions.edge_ip in p for p in provider.prefixes)

    def test_edges_configured_for_customer(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        for edge in cloudflare_like.edges:
            assert edge.origin_for(WWW) == ORIGIN


class TestPauseResume:
    def test_pause_exposes_origin(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.pause(WWW)
        response = _query_ns(mini, cloudflare_like)
        assert response.answers[0].address == ORIGIN

    def test_resume_restores_edge(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.pause(WWW)
        cloudflare_like.resume(WWW)
        address = _query_ns(mini, cloudflare_like).answers[0].address
        assert any(address in p for p in cloudflare_like.prefixes)

    def test_pause_unsupported_provider_rejects(self, mini):
        provider = mini.build_provider(supports_pause=False)
        provider.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        with pytest.raises(PortalError):
            provider.pause(WWW)

    def test_pause_non_customer_rejected(self, mini, cloudflare_like):
        with pytest.raises(PortalError):
            cloudflare_like.pause(WWW)

    def test_resume_without_pause_rejected(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        with pytest.raises(PortalError):
            cloudflare_like.resume(WWW)

    def test_cname_pause_rewrites_canonical(self, mini, incapsula_like):
        instructions = incapsula_like.onboard(WWW, ORIGIN, ReroutingMethod.CNAME_BASED)
        incapsula_like.pause(WWW)
        records = incapsula_like.infra_zone.lookup(instructions.cname, RecordType.A)
        assert records[0].address == ORIGIN

    def test_update_origin_while_paused_reflects_immediately(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.pause(WWW)
        new_origin = IPv4Address("172.16.0.99")
        cloudflare_like.update_origin(WWW, new_origin)
        assert _query_ns(mini, cloudflare_like).answers[0].address == new_origin


class TestTermination:
    def test_informed_termination_answers_origin(self, mini, cloudflare_like):
        """The headline vulnerability: stale answer exposes the origin."""
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.terminate(WWW, informed=True)
        response = _query_ns(mini, cloudflare_like)
        assert response.rcode is Rcode.NOERROR
        assert response.answers[0].address == ORIGIN

    def test_uninformed_termination_keeps_edge_answer(self, mini, cloudflare_like):
        # Footnote 9: unaware provider keeps the old config → edge IP.
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.terminate(WWW, informed=False)
        address = _query_ns(mini, cloudflare_like).answers[0].address
        assert any(address in p for p in cloudflare_like.prefixes)

    def test_refuse_policy_blocks_exposure(self, mini):
        provider = mini.build_provider(
            name="cleanco",
            infra_domain="cleanco.net",
            as_numbers=[64999],
            ns_host_suffix="ns.cleanco.net",
        )
        provider.residual_policy = RefuseAfterTermination()
        provider.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        provider.terminate(WWW, informed=True)
        assert _query_ns(mini, provider).rcode is Rcode.REFUSED

    def test_cname_termination_answers_origin_via_canonical(self, mini, incapsula_like):
        instructions = incapsula_like.onboard(WWW, ORIGIN, ReroutingMethod.CNAME_BASED)
        incapsula_like.terminate(WWW, informed=True)
        response = _query_ns(mini, incapsula_like, str(instructions.cname))
        assert response.is_answer
        assert response.answers[0].address == ORIGIN

    def test_terminated_customer_not_proxied(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.terminate(WWW, informed=True)
        for edge in cloudflare_like.edges:
            assert edge.origin_for(WWW) is None

    def test_every_edge_reads_one_customer_table(self, mini, cloudflare_like):
        tables = {id(edge._origins) for edge in cloudflare_like.edges}
        assert len(tables) == 1
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        assert len(cloudflare_like.edges[0]._origins) == 2  # www and apex

    def test_termination_flushes_every_edge_cache(self, mini, cloudflare_like):
        old = OriginServer("example.com", ORIGIN, rank=1)
        new = OriginServer("example.com", "172.16.0.11", rank=2)
        for origin in (old, new):
            mini.fabric.register_http(origin.ip, origin)
        client = HttpClient(mini.fabric)

        def site_ids():
            return {
                HtmlDocument.parse(client.get(edge.ip, WWW).body).meta["site-id"]
                for edge in cloudflare_like.edges
            }

        cloudflare_like.onboard(WWW, old.ip, ReroutingMethod.NS_BASED)
        assert site_ids() == {"example.com#1"}
        assert old.requests_served == len(cloudflare_like.edges)
        cloudflare_like.terminate(WWW, informed=True)
        cloudflare_like.onboard(WWW, new.ip, ReroutingMethod.NS_BASED)
        # A cache that outlived the termination would still serve #1.
        assert site_ids() == {"example.com#2"}

    def test_double_termination_rejected(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.terminate(WWW)
        with pytest.raises(PortalError):
            cloudflare_like.terminate(WWW)

    def test_rejoin_after_termination(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.terminate(WWW, informed=True)
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        record = cloudflare_like.customer_for(WWW)
        assert record is not None and record.is_active

    def test_non_a_queries_for_terminated_refused(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        cloudflare_like.terminate(WWW, informed=True)
        client = DnsClient(mini.fabric)
        ns_ip = cloudflare_like.customer_fleet.all_addresses()[0]
        response = client.query(ns_ip, WWW, RecordType.MX)
        assert response.rcode is Rcode.REFUSED


class TestPurge:
    def _terminate_and_age(self, mini, provider, days, plan=PlanTier.FREE):
        provider.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED, plan)
        provider.terminate(WWW, informed=True)
        mini.clock.advance(days * SECONDS_PER_DAY)
        return provider.purge_expired()

    def test_purge_after_free_horizon(self, mini, cloudflare_like):
        purged = self._terminate_and_age(mini, cloudflare_like, 28)
        assert [str(p) for p in purged] == [WWW]
        assert _query_ns(mini, cloudflare_like).rcode is Rcode.REFUSED

    def test_no_purge_before_horizon(self, mini, cloudflare_like):
        purged = self._terminate_and_age(mini, cloudflare_like, 27)
        assert purged == []
        assert _query_ns(mini, cloudflare_like).is_answer

    def test_enterprise_records_never_purged(self, mini, cloudflare_like):
        purged = self._terminate_and_age(
            mini, cloudflare_like, 365, plan=PlanTier.ENTERPRISE
        )
        assert purged == []
        assert _query_ns(mini, cloudflare_like).is_answer

    def test_active_customers_never_purged(self, mini, cloudflare_like):
        cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        mini.clock.advance(100 * SECONDS_PER_DAY)
        assert cloudflare_like.purge_expired() == []


class TestTrackAndComparePolicy:
    def test_answers_until_public_resolution_moves(self, mini, cloudflare_like):
        cloudflare_like.residual_policy = TrackAndCompare()
        instructions = cloudflare_like.onboard(WWW, ORIGIN, ReroutingMethod.NS_BASED)
        mini.hierarchy.delegate_apex("example.com", instructions.nameservers)
        cloudflare_like.terminate(WWW, informed=True)
        # Public resolution still reaches this provider, whose stale
        # answer must NOT count as presence (re-entrancy guard) — so the
        # provider stops answering.
        response = _query_ns(mini, cloudflare_like)
        assert response.rcode is Rcode.REFUSED
