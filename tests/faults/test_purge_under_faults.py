"""Provider-side guarantees must not depend on the network being healthy.

The purge horizon is driven by the simulation clock, not by reachability
— a customer that terminates while its (former) nameserver fleet is dark
is still purged on schedule.  And a refuse-after-termination provider
refuses even when the fault plan makes the first probe attempt fail.
"""

from repro.dns.message import Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod
from repro.dps.residual_policy import RefuseAfterTermination
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.obs.metrics import MetricsRegistry
from repro.web.origin import OriginServer, default_document
from repro.world.hosting import HostingProvider
from repro.world.website import Website

FREE_PURGE_HORIZON_DAYS = 28


def make_probe_site(world, label):
    """A fresh site outside the studied population (mirrors PurgeProbe)."""
    hosting: HostingProvider = world.hosting_providers[0]
    apex = DomainName(f"fault-probe-{label}.com")
    origin_ip = hosting.allocate_origin_ip()
    document = default_document(apex, rank=10**9)
    origin = OriginServer(apex, origin_ip, document)
    hosting.deploy_origin(origin)
    hosting.host_zone(apex, origin_ip)
    return Website(rank=10**9, apex=apex, hosting=hosting, origin=origin)


def test_termination_during_ns_outage_still_purged_on_schedule(world_factory):
    world = world_factory(population_size=80, seed=77)
    provider = world.provider("cloudflare")
    site = make_probe_site(world, "outage")
    site.join(provider, ReroutingMethod.NS_BASED, PlanTier.FREE)

    # The whole customer nameserver fleet goes dark for a week, starting
    # the day the customer terminates.
    fleet = frozenset(provider.customer_fleet.all_addresses())
    world.install_faults(
        FaultPlan(
            seed=world.rng.fork("purge-outage-test").seed,
            clock=world.clock,
            rules=[
                FaultRule(
                    FaultKind.OUTAGE,
                    plane="dns",
                    addresses=fleet,
                    from_day=world.clock.day,
                    until_day=world.clock.day + 7,
                )
            ],
        )
    )
    site.leave(informed=True)

    world.engine.run_days(FREE_PURGE_HORIZON_DAYS - 1)
    assert provider.customer_for(site.www) is not None  # still held

    world.engine.run_days(2)
    assert provider.customer_for(site.www) is None  # purged on schedule


def test_refuse_after_termination_despite_injected_servfail(world_factory):
    world = world_factory(population_size=80, seed=78)
    provider = world.provider("cloudflare")
    provider.residual_policy = RefuseAfterTermination()
    site = make_probe_site(world, "refuse")
    site.join(provider, ReroutingMethod.NS_BASED, PlanTier.FREE)
    site.leave(informed=True)

    # Every first attempt gets an injected SERVFAIL; the cap of 1 lets
    # the retry through, where the provider's answer is REFUSED.
    world.install_faults(
        FaultPlan(
            seed=world.rng.fork("refuse-servfail-test").seed,
            clock=world.clock,
            rules=[FaultRule(FaultKind.SERVFAIL, probability=1.0, plane="dns")],
            max_failed_attempts=1,
        )
    )
    metrics = MetricsRegistry()
    client = world.dns_client(metrics=metrics)
    ns_hostname = provider.nameserver_hostnames()[0]
    ns_ip = provider.customer_fleet.address_of(ns_hostname)
    response = client.query(ns_ip, site.www, RecordType.A)
    assert response is not None
    assert response.rcode is Rcode.REFUSED  # definitive, not retried away
    assert metrics.value("client.retries") >= 1
