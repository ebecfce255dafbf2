"""E1 — Fig. 2: DPS adoption breakdown per provider.

Paper: 14.85% of the top 1M adopt a DPS; 38.98% among the top 10k;
Cloudflare dominates; adoption grew ~1.17% over six weeks.
"""

from repro.core.collector import DnsRecordCollector
from repro.core.matching import ProviderMatcher
from repro.core.report import render_fig2_adoption
from repro.core.status import StatusDeterminer


def test_fig2_adoption_shape(study):
    assert 0.12 < study.overall_adoption_rate < 0.18          # paper 14.85%
    assert 0.30 < study.top_sites_adoption_rate < 0.50        # paper 38.98%
    assert study.top_sites_adoption_rate > 2 * study.overall_adoption_rate
    adoption = study.adoption_by_provider
    assert max(adoption, key=adoption.get) == "cloudflare"
    total = sum(adoption.values())
    assert adoption["cloudflare"] / total > 0.70              # paper 79%
    # Paper: +1.17% over six weeks; positive in expectation, allow
    # bench-scale sampling noise around zero.
    assert study.adoption_growth > -0.015
    print()
    print(render_fig2_adoption(study))


def test_fig2_daily_collection_benchmark(benchmark, bench_world):
    """Time one daily collection pass over a 200-site sample."""
    hostnames = [str(s.www) for s in bench_world.population[:200]]
    matcher = ProviderMatcher(bench_world.specs, bench_world.routeviews)
    collector = DnsRecordCollector(
        bench_world.make_resolver(), StatusDeterminer(matcher)
    )

    def collect():
        return collector.collect(hostnames, day=bench_world.clock.day)

    snapshot = benchmark(collect)
    assert len(snapshot) == 200
