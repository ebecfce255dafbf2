"""Tests for the observability registry and simulated-time timers."""

import pytest

from repro.clock import SimulationClock
from repro.errors import SimulationError
from repro.obs import MetricsRegistry


class TestCounters:
    def test_unset_counter_reads_zero(self):
        assert MetricsRegistry().value("resolver.queries_sent") == 0

    def test_incr_accumulates_and_returns_total(self):
        metrics = MetricsRegistry()
        assert metrics.incr("cache.hits") == 1
        assert metrics.incr("cache.hits", 4) == 5
        assert metrics.value("cache.hits") == 5

    def test_zero_increment_creates_counter(self):
        metrics = MetricsRegistry()
        metrics.incr("bench.warmup.sim_seconds", 0)
        assert metrics.value("bench.warmup.sim_seconds") == 0
        assert len(metrics) == 1

    def test_negative_increment_rejected(self):
        metrics = MetricsRegistry()
        with pytest.raises(SimulationError):
            metrics.incr("cache.hits", -1)

    def test_len_counts_distinct_counters(self):
        metrics = MetricsRegistry()
        metrics.incr("a")
        metrics.incr("a")
        metrics.incr("b")
        assert len(metrics) == 2


class TestCounterHandles:
    def test_handle_and_named_increments_snapshot_identically(self):
        by_handle, by_name = MetricsRegistry(), MetricsRegistry()
        hits, misses = by_handle.counter("cache.hits"), by_handle.counter("cache.misses")
        for amount in (1, 3, 0, 2):
            hits.incr(amount)
            by_name.incr("cache.hits", amount)
        misses.incr()
        by_name.incr("cache.misses")
        assert by_handle.snapshot() == by_name.snapshot()
        assert repr(by_handle.snapshot()) == repr(by_name.snapshot())

    def test_handle_returns_total_and_shares_the_named_counter(self):
        metrics = MetricsRegistry()
        handle = metrics.counter("resolver.queries_sent")
        assert handle.incr() == 1
        assert metrics.incr("resolver.queries_sent", 2) == 3
        assert handle.incr(4) == 7
        assert metrics.value("resolver.queries_sent") == 7

    def test_bound_but_unused_handle_is_absent_from_snapshot(self):
        metrics = MetricsRegistry()
        metrics.counter("cache.hits")
        metrics.incr("cache.misses")
        assert metrics.snapshot() == {"cache.misses": 1}
        assert len(metrics) == 1

    def test_zero_increment_through_a_handle_creates_counter(self):
        metrics = MetricsRegistry()
        metrics.counter("cache.hits").incr(0)
        assert metrics.snapshot() == {"cache.hits": 0}

    def test_negative_handle_increment_rejected(self):
        metrics = MetricsRegistry()
        handle = metrics.counter("cache.hits")
        with pytest.raises(SimulationError):
            handle.incr(-1)
        assert metrics.snapshot() == {}

    def test_handle_bound_before_restore_adds_to_restored_total(self):
        metrics = MetricsRegistry()
        handle = metrics.counter("resolver.queries_sent")
        handle.incr(5)
        metrics.restore({"resolver.queries_sent": 40, "cache.hits": 2})
        assert metrics.value("resolver.queries_sent") == 40
        handle.incr()
        assert metrics.snapshot() == {"cache.hits": 2, "resolver.queries_sent": 41}

    def test_handle_bound_before_restore_of_a_missing_counter_starts_at_zero(self):
        metrics = MetricsRegistry()
        handle = metrics.counter("cache.hits")
        handle.incr(3)
        metrics.restore({"cache.misses": 1})
        handle.incr()
        assert metrics.snapshot() == {"cache.hits": 1, "cache.misses": 1}

    def test_handle_bound_before_merge_adds_to_merged_total(self):
        metrics = MetricsRegistry()
        handle = metrics.counter("resolver.queries_sent")
        handle.incr(2)
        other = MetricsRegistry()
        other.incr("resolver.queries_sent", 10)
        metrics.merge(other)
        metrics.merge({"resolver.queries_sent": 5})
        handle.incr()
        assert metrics.value("resolver.queries_sent") == 18

    def test_resumed_registry_matches_an_uninterrupted_one(self):
        # The checkpoint-resume path: handles bound at construction keep
        # counting after the registry is restored from a snapshot.
        uninterrupted = MetricsRegistry()
        handle = uninterrupted.counter("cache.hits")
        for _ in range(3):
            handle.incr()
        snapshot = uninterrupted.snapshot()
        handle.incr(2)

        resumed = MetricsRegistry()
        resumed_handle = resumed.counter("cache.hits")
        resumed.restore(snapshot)
        resumed_handle.incr(2)
        assert resumed.snapshot() == uninterrupted.snapshot()


class TestSnapshot:
    def test_full_snapshot_sorted(self):
        metrics = MetricsRegistry()
        metrics.incr("resolver.queries_sent", 3)
        metrics.incr("cache.hits", 2)
        assert list(metrics.snapshot()) == ["cache.hits", "resolver.queries_sent"]

    def test_prefix_matches_whole_dotted_segments(self):
        metrics = MetricsRegistry()
        metrics.incr("cache.hits")
        metrics.incr("cache.misses", 2)
        metrics.incr("cachex.hits", 9)
        assert metrics.snapshot("cache") == {
            "cache.hits": 1,
            "cache.misses": 2,
        }

    def test_prefix_includes_exact_name(self):
        metrics = MetricsRegistry()
        metrics.incr("cache")
        metrics.incr("cache.hits")
        assert metrics.snapshot("cache") == {"cache": 1, "cache.hits": 1}

    def test_snapshot_is_a_copy(self):
        metrics = MetricsRegistry()
        metrics.incr("a")
        snapshot = metrics.snapshot()
        snapshot["a"] = 99
        assert metrics.value("a") == 1


class TestSimTimer:
    def test_records_sim_seconds_and_activations(self):
        clock = SimulationClock()
        metrics = MetricsRegistry()
        with metrics.timer("bench.warmup", clock):
            clock.advance(432)
        assert metrics.value("bench.warmup.sim_seconds") == 432
        assert metrics.value("bench.warmup.activations") == 1

    def test_accumulates_across_activations(self):
        clock = SimulationClock()
        metrics = MetricsRegistry()
        with metrics.timer("phase", clock):
            clock.advance(10)
        with metrics.timer("phase", clock):
            clock.advance(5)
        assert metrics.value("phase.sim_seconds") == 15
        assert metrics.value("phase.activations") == 2

    def test_untouched_clock_records_zero(self):
        clock = SimulationClock()
        metrics = MetricsRegistry()
        with metrics.timer("idle", clock):
            pass
        assert metrics.value("idle.sim_seconds") == 0
        assert metrics.value("idle.activations") == 1

    def test_records_on_exception(self):
        clock = SimulationClock()
        metrics = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with metrics.timer("failing", clock):
                clock.advance(7)
                raise RuntimeError("boom")
        assert metrics.value("failing.sim_seconds") == 7
        assert metrics.value("failing.activations") == 1
