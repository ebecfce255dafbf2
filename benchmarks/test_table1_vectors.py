"""Table I — the classic origin-exposure vectors, quantified.

The paper surveys these vectors as background (§II-B, from Vissers et
al., who found >70% of protected sites vulnerable to at least one); our
world plants them at calibrated prevalence, and this bench measures
what a CloudPiercer-style scanner recovers — and compares the classic
vectors with the paper's new residual-resolution vector.
"""

import pytest

from repro.core.collector import DnsRecordCollector
from repro.core.history import PassiveDnsDb
from repro.core.htmlverify import HtmlVerifier
from repro.core.matching import ProviderMatcher
from repro.core.status import StatusDeterminer
from repro.core.vectors import OriginExposureScanner

COHORT = 40


@pytest.fixture(scope="module")
def vector_sweep():
    from repro.dps.portal import ReroutingMethod
    from repro.world import SimulatedInternet, WorldConfig

    world = SimulatedInternet(WorldConfig(population_size=600, seed=71))
    matcher = ProviderMatcher(world.specs, world.routeviews)
    scanner = OriginExposureScanner(
        world.make_resolver(), matcher, HtmlVerifier(world.http_client("oregon"))
    )
    cohort = [
        s for s in world.population
        if s.provider is None and s.alive and not s.multicdn
    ][:COHORT]
    # Passive DNS watches the sites BEFORE they adopt protection —
    # that is where the IP-history vector's power comes from.
    db = PassiveDnsDb()
    collector = DnsRecordCollector(world.make_resolver(), StatusDeterminer(matcher))
    db.observe(collector.collect([str(s.www) for s in cohort], day=0))
    cf = world.provider("cloudflare")
    for site in cohort:
        # Table V discipline: some admins rotate the origin at join.
        site.join(
            cf, ReroutingMethod.NS_BASED,
            rotate_origin_ip=world.admin.rotate_on_join(
                next(s for s in world.specs if s.name == "cloudflare")
            ),
        )
    results = {
        str(site.www): scanner.scan_site(site.www, db) for site in cohort
    }
    return world, cohort, results


def test_table1_per_vector_rates(vector_sweep):
    world, customers, results = vector_sweep
    exposed_by = {"ip-history": 0, "subdomains": 0, "mx-records": 0}
    for findings in results.values():
        for finding in findings:
            if finding.exposed:
                exposed_by[finding.vector] += 1
    total = len(customers)
    print()
    print(f"Table I vectors over {total} protected sites:")
    for vector, count in exposed_by.items():
        print(f"  {vector:<12} {count:>3}/{total} ({count / total:.0%})")
    # Planted prevalence: dev 15%, MX 20% — measurement is a lower
    # bound of those, and IP history tracks the unchanged-origin rate.
    assert exposed_by["subdomains"] <= total * 0.3
    assert exposed_by["mx-records"] <= total * 0.4
    assert exposed_by["ip-history"] > 0


def test_table1_at_least_one_vector(vector_sweep):
    world, customers, results = vector_sweep
    exposed = sum(
        1 for findings in results.values() if any(f.exposed for f in findings)
    )
    rate = exposed / len(customers)
    # Vissers et al.: >70% exposed by at least one vector.  IP history
    # dominates (every unrotated, unfirewalled origin), so the rate
    # lands in the same ballpark.
    assert rate > 0.40, rate
    print(f"\nexposed by >=1 classic vector: {exposed}/{len(customers)} ({rate:.0%})")


def test_table1_sweep_benchmark(benchmark, vector_sweep):
    world, customers, _ = vector_sweep
    matcher = ProviderMatcher(world.specs, world.routeviews)
    scanner = OriginExposureScanner(
        world.make_resolver(), matcher, HtmlVerifier(world.http_client("oregon"))
    )
    site = customers[0]

    def sweep():
        return scanner.scan_site(site.www)

    findings = benchmark(sweep)
    assert len(findings) == 2  # subdomains + MX (no passive DNS here)
