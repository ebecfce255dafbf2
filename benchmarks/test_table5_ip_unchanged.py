"""E5 — Table V: origin-IP unchanged rate after JOIN/RESUME.

Paper: 58.6% overall; Cloudfront lowest (35.0%), CDN77 highest (93.8%);
Cloudflare 59.5%.
"""

from repro.core.htmlverify import HtmlVerifier
from repro.core.ip_change import IpChangeExperiment
from repro.core.report import render_table5_ip_unchanged


def test_table5_total_rate(study):
    result = study.ip_change
    assert result is not None
    total = result.total
    assert total.join_resume >= 15, "need JOIN/RESUME events at bench scale"
    # Paper total 58.6%.  Our measured value sits *below* the planted
    # rate because HTML verification misses firewalled and dynamic-meta
    # origins (~18% of sites) — the lower-bound property the paper
    # itself states.  Binomial noise at bench-scale n widens the band.
    expected = 0.586 * 0.82
    tolerance = 0.10 + 1.2 * (0.25 / total.join_resume) ** 0.5
    assert abs(total.percentage - expected) < tolerance, (
        total.percentage, total.join_resume,
    )
    print()
    print(render_table5_ip_unchanged(study))


def test_table5_cloudflare_row(study):
    row = study.ip_change.rows.get("cloudflare")
    assert row is not None and row.join_resume >= 10
    expected = 0.595 * 0.82  # paper 59.5%, minus verification misses
    tolerance = 0.10 + 1.2 * (0.25 / row.join_resume) ** 0.5
    assert abs(row.percentage - expected) < tolerance


def test_table5_verification_is_lower_bound(study, bench_world):
    """Measured unchanged rates never exceed the planted Table V rates by
    more than sampling noise — dynamic meta and firewalls only *hide*
    unchanged origins, never invent them."""
    from repro.dps.catalog import provider_spec
    for name, row in study.ip_change.rows.items():
        if row.join_resume < 20:
            continue
        planted = provider_spec(name).ip_unchanged_rate
        assert row.percentage <= planted + 0.22


def test_table5_experiment_benchmark(benchmark, study, bench_world):
    verifier = HtmlVerifier(bench_world.http_client("oregon"))
    experiment = IpChangeExperiment(verifier)

    def run():
        return experiment.run(study.behaviors, study.days)

    result = benchmark(run)
    assert result.total.join_resume == study.ip_change.total.join_resume
