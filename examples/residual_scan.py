#!/usr/bin/env python3
"""§V standalone: the residual-resolution scan, step by step.

Shows the machinery of the Cloudflare case study explicitly rather than
through the study orchestrator:

1. harvest ``*.ns.cloudflare.*`` nameserver identities from customer
   delegations observed in daily snapshots;
2. resolve them to anycast addresses;
3. direct-query every site's www hostname against randomly-chosen
   nameservers from the five vantage points (Fig. 7);
4. run the Fig. 8 filter pipeline: IP-matching → A-matching → HTML
   verification;
5. print the per-stage counts and the exposed origins.
"""

from repro import SimulatedInternet, WorldConfig
from repro.core import (
    CloudflareScanner,
    DnsRecordCollector,
    FilterPipeline,
    HtmlVerifier,
    NameserverHarvest,
    ProviderMatcher,
    StatusDeterminer,
)
from repro.net.geo import PAPER_VANTAGE_REGIONS


def main() -> None:
    world = SimulatedInternet(WorldConfig(population_size=2000, seed=11))
    print("Warming the world up (accumulating departures)…")
    world.engine.run_days(45)

    hostnames = [str(s.www) for s in world.population]
    matcher = ProviderMatcher(world.specs, world.routeviews)
    collector = DnsRecordCollector(world.make_resolver(), StatusDeterminer(matcher))
    snapshot = collector.collect(hostnames, day=world.clock.day)

    harvest = NameserverHarvest()
    harvest.ingest([snapshot])
    ns_ips = harvest.resolve_addresses(world.make_resolver())
    print(f"[harvest] {len(harvest)} nameserver identities "
          f"(paper: 391), e.g. {harvest.hostnames[:3]}")

    clients = [world.dns_client(region) for region in PAPER_VANTAGE_REGIONS]
    scanner = CloudflareScanner(ns_ips, clients)
    retrieved = scanner.scan(hostnames)
    print(f"[scan] {scanner.queries_answered} answered / "
          f"{scanner.queries_ignored} ignored over {len(hostnames):,} "
          f"hostnames from {len(clients)} vantage points")

    cloudflare = world.provider("cloudflare")
    verifier = HtmlVerifier(world.http_client("oregon"))
    pipeline = FilterPipeline(
        cloudflare.prefixes, world.make_resolver(), verifier
    )
    report = pipeline.run(retrieved, "cloudflare", week=0)

    print(f"[pipeline] retrieved {report.retrieved} records")
    print(f"  IP-matching filter dropped {report.dropped_ip_filter} "
          "(active customers → edge addresses)")
    print(f"  A-matching filter dropped {report.dropped_a_filter} "
          "(publicly visible anyway)")
    print(f"  hidden records: {report.hidden_count}")
    print(f"  verified exposed origins: {report.verified_count} "
          f"({report.verified_fraction:.0%}; paper: 24.8%)")
    for record in report.hidden:
        verdict = "EXPOSED ORIGIN" if record.verified_origin else record.reason
        print(f"    {record.www:<28} -> {str(record.address):<15} {verdict}")

    for record in report.hidden:
        assert not matcher.in_provider_ranges(record.address)


if __name__ == "__main__":
    main()
