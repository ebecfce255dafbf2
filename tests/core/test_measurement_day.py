"""One measurement day: ``begin`` → ``collect_day`` → ``scan_day``.

``repro bench``, ``repro chaos`` and ``repro scan`` run the study's own
first day instead of wiring E1/E8 by hand, so the study must hand them
everything they read: a registry every component records into, and the
week's raw sweep alongside the filtered pipeline reports.
"""

import pytest

from repro.core.study import SixWeekStudy, StudyConfig, WeeklyScan
from repro.obs.metrics import MetricsRegistry
from repro.world import SimulatedInternet, WorldConfig

POPULATION = 200
SEED = 2018
WARMUP = 10


def _one_day(metrics=None):
    world = SimulatedInternet(WorldConfig(population_size=POPULATION, seed=SEED))
    world.engine.run_days(WARMUP)
    study = SixWeekStudy(
        world, StudyConfig(warmup_days=0, study_days=1), metrics=metrics
    )
    runtime = study.begin()
    study.collect_day(runtime)
    return runtime, study.scan_day(runtime)


@pytest.fixture(scope="module")
def shared():
    metrics = MetricsRegistry()
    runtime, scan = _one_day(metrics)
    return metrics, runtime, scan


class TestSharedRegistry:
    def test_every_component_records_into_it(self, shared):
        metrics, runtime, _ = shared
        assert runtime.collection_resolver.metrics is metrics
        assert all(client.metrics is metrics for client in runtime.vantage_clients)
        counters = metrics.snapshot()
        assert counters["scan.cloudflare.queries"] == POPULATION
        assert counters["client.queries"] >= POPULATION
        assert counters["resolver.batches"] > 2  # collection plus the sweep's

    def test_default_keeps_a_registry_per_component(self):
        runtime, _ = _one_day()
        registries = {id(runtime.collection_resolver.metrics)} | {
            id(client.metrics) for client in runtime.vantage_clients
        }
        assert len(registries) == 1 + len(runtime.vantage_clients)


class TestWeeklyScan:
    def test_scan_day_returns_the_raw_sweep(self, shared):
        _, runtime, scan = shared
        assert isinstance(scan, WeeklyScan)
        assert scan.nameserver_addresses
        cloudflare = runtime.report.cloudflare_weekly[0]
        assert cloudflare.retrieved == sum(
            len(set(record.addresses)) for record in scan.cloudflare_retrieved
        )
        incapsula = runtime.report.incapsula_weekly[0]
        assert incapsula.retrieved == sum(
            len(set(record.addresses)) for record in scan.incapsula_retrieved
        )

    def test_the_sweep_covers_the_day_s_harvest(self, shared):
        _, runtime, scan = shared
        assert len(runtime.harvest) > 0
        assert runtime.report.skipped_scan_weeks == []
        assert all(record.provider == "cloudflare" for record in scan.cloudflare_retrieved)
