"""E6 — Fig. 6: Cloudflare adoption breakdown by rerouting mechanism.

Paper: NS-based 89.95% vs CNAME-based 10.05% (CNAME setup is exclusive
to business/enterprise plans).
"""

from repro.core.report import render_fig6_cloudflare
from repro.dps.plans import PlanTier
from repro.dps.portal import ReroutingMethod


def test_fig6_breakdown_shape(study):
    assert 0.82 < study.cloudflare_ns_share < 0.96       # paper 89.95%
    assert 0.04 < study.cloudflare_cname_share < 0.18    # paper 10.05%
    print()
    print(render_fig6_cloudflare(study))


def test_fig6_cname_customers_hold_paid_plans(bench_world):
    cf = bench_world.provider("cloudflare")
    cname_customers = [
        record for record in cf.customers
        if record.rerouting is ReroutingMethod.CNAME_BASED
    ]
    assert cname_customers
    for record in cname_customers:
        assert record.plan in (PlanTier.BUSINESS, PlanTier.ENTERPRISE)


def test_fig6_classification_benchmark(benchmark, study):
    def tally():
        ns = cname = 0
        for table in study.days:
            for observation in table.observations():
                if observation.provider != "cloudflare":
                    continue
                if observation.rerouting is ReroutingMethod.CNAME_BASED:
                    cname += 1
                elif observation.rerouting is ReroutingMethod.NS_BASED:
                    ns += 1
        return ns, cname

    ns, cname = benchmark(tally)
    assert ns > cname
