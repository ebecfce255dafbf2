"""Tests for the TTL cache."""

import pytest

from repro.clock import SimulationClock
from repro.dns.cache import DnsCache
from repro.dns.name import DomainName
from repro.dns.records import RecordType, a_record, cname_record, ns_record
from repro.net.ipaddr import IPv4Address
from repro.obs import MetricsRegistry


def _cache():
    clock = SimulationClock()
    return clock, DnsCache(clock)


class TestBasics:
    def test_put_get(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=300))
        records = cache.get("www.example.com", RecordType.A)
        assert records is not None and len(records) == 1

    def test_miss_returns_none(self):
        _, cache = _cache()
        assert cache.get("www.example.com", RecordType.A) is None

    def test_type_segregation(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1"))
        assert cache.get("www.example.com", RecordType.NS) is None

    def test_zero_ttl_never_cached(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=0))
        assert cache.get("www.example.com", RecordType.A) is None

    def test_multiple_rdata_coexist(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=300))
        cache.put(a_record("www.example.com", "2.2.2.2", ttl=300))
        assert len(cache.get("www.example.com", RecordType.A)) == 2

    def test_same_rdata_refreshes_expiry(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=100))
        clock.advance(90)
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=100))
        clock.advance(50)  # original would have expired at t=100
        assert cache.get("www.example.com", RecordType.A) is not None


class TestTtl:
    def test_expiry(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=100))
        clock.advance(100)
        assert cache.get("www.example.com", RecordType.A) is None

    def test_remaining_ttl_decrements(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=100))
        clock.advance(40)
        records = cache.get("www.example.com", RecordType.A)
        assert records[0].ttl == 60

    def test_partial_expiry(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=50))
        cache.put(a_record("www.example.com", "2.2.2.2", ttl=500))
        clock.advance(100)
        records = cache.get("www.example.com", RecordType.A)
        assert len(records) == 1

    def test_long_ns_record_outlives_short_a(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=300))
        cache.put(ns_record("example.com", "ns1.dps.net", ttl=86400))
        clock.advance(3600)
        assert cache.get("www.example.com", RecordType.A) is None
        assert cache.get("example.com", RecordType.NS) is not None


class TestManagement:
    def test_purge(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=300))
        cache.purge()
        assert cache.get("www.example.com", RecordType.A) is None
        assert len(cache) == 0

    def test_evict_by_type(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1"))
        cache.put(ns_record("www.example.com", "ns1.x.net"))
        assert cache.evict("www.example.com", RecordType.A) == 1
        assert cache.get("www.example.com", RecordType.NS) is not None

    def test_evict_all_types(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1"))
        cache.put(ns_record("www.example.com", "ns1.x.net"))
        assert cache.evict("www.example.com") == 2

    def test_contains_does_not_count_hits(self):
        _, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1"))
        cache.contains("www.example.com", RecordType.A)
        assert cache.hits == 0

    def test_hit_miss_counters(self):
        _, cache = _cache()
        cache.get("a.com", RecordType.A)
        cache.put(a_record("a.com", "1.1.1.1"))
        cache.get("a.com", RecordType.A)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_len_counts_live_records(self):
        clock, cache = _cache()
        cache.put(a_record("a.com", "1.1.1.1", ttl=10))
        cache.put(a_record("b.com", "2.2.2.2", ttl=1000))
        assert len(cache) == 2
        clock.advance(100)
        assert len(cache) == 1


class TestExpiryEdge:
    """Expiry is exclusive: at ``exp == now`` the entry is dead (an
    answer handed out now would carry TTL 0 — uncacheable)."""

    def test_live_one_second_before_expiry(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=100))
        clock.advance(99)
        records = cache.get("www.example.com", RecordType.A)
        assert records is not None
        assert records[0].ttl == 1

    def test_dead_at_exact_expiry(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=100))
        clock.advance(100)
        assert cache.get("www.example.com", RecordType.A) is None
        assert not cache.contains("www.example.com", RecordType.A)

    def test_expired_read_counts_as_miss(self):
        clock, cache = _cache()
        cache.put(a_record("www.example.com", "1.1.1.1", ttl=10))
        clock.advance(10)
        cache.get("www.example.com", RecordType.A)
        assert cache.misses == 1
        assert cache.hits == 0

    def test_negative_entry_dead_at_exact_expiry(self):
        clock, cache = _cache()
        cache.put_negative("gone.example.com", RecordType.A, "NXDOMAIN", ttl=50)
        assert cache.get_negative("gone.example.com", RecordType.A) == "NXDOMAIN"
        clock.advance(50)
        assert cache.get_negative("gone.example.com", RecordType.A) is None
        assert cache.negative_hits == 1


class TestMetricsMirroring:
    """Hit/miss/negative-hit accounting mirrors into an injected
    registry under ``cache.*`` (what ``repro bench`` snapshots)."""

    def test_counters_mirrored(self):
        clock = SimulationClock()
        metrics = MetricsRegistry()
        cache = DnsCache(clock, metrics)
        assert cache.metrics is metrics
        cache.get("a.com", RecordType.A)                      # miss
        cache.put(a_record("a.com", "1.1.1.1"))
        cache.get("a.com", RecordType.A)                      # hit
        cache.put_negative("b.com", RecordType.A, "NODATA", ttl=30)
        cache.get_negative("b.com", RecordType.A)             # negative hit
        cache.purge()
        assert metrics.snapshot("cache") == {
            "cache.hits": 1,
            "cache.misses": 1,
            "cache.negative_hits": 1,
            "cache.purges": 1,
        }

    def test_private_registry_by_default(self):
        _, cache = _cache()
        cache.get("a.com", RecordType.A)
        assert cache.metrics.value("cache.misses") == 1


class TestResolverLookups:
    """``probe``, ``delegation_addresses`` and ``addresses`` answer in one
    call what the resolver used to ask ``get`` several times, and count
    exactly the hits, misses and negative hits those ``get`` calls did."""

    @staticmethod
    def _filled(metrics):
        clock = SimulationClock()
        cache = DnsCache(clock, metrics)
        cache.put(a_record("a.example.com", "1.1.1.1"))
        cache.put(cname_record("c.example.com", "a.example.com"))
        cache.put_negative("gone.example.com", RecordType.A, "NXDOMAIN", ttl=60)
        cache.put(ns_record("example.com", "ns1.example.net"))
        cache.put(ns_record("example.com", "ns2.example.net"))
        cache.put(a_record("ns2.example.net", "2.2.2.2"))
        return cache

    @pytest.mark.parametrize("qname", ["a.example.com", "c.example.com",
                                       "gone.example.com", "none.example.com"])
    @pytest.mark.parametrize("rtype", [RecordType.A, RecordType.CNAME])
    def test_probe_counts_like_the_get_sequence(self, qname, rtype):
        by_probe, by_get = MetricsRegistry(), MetricsRegistry()
        probing, getting = self._filled(by_probe), self._filled(by_get)
        name = DomainName(qname)

        records, negative = probing.probe(name, rtype)

        expected = getting.get(name, rtype)
        if expected is None and rtype is not RecordType.CNAME:
            expected = getting.get(name, RecordType.CNAME)
        expected_negative = (
            getting.get_negative(name, rtype) if expected is None else None
        )
        assert records == expected
        assert negative == expected_negative
        assert by_probe.snapshot() == by_get.snapshot()
        assert (probing.hits, probing.misses, probing.negative_hits) == (
            getting.hits, getting.misses, getting.negative_hits
        )

    def test_delegation_addresses_follow_ns_order_and_count_per_name(self):
        metrics = MetricsRegistry()
        cache = self._filled(metrics)
        zone = DomainName("example.com")
        assert cache.delegation_addresses(zone) == [IPv4Address("2.2.2.2")]
        # One NS hit, then ns1 (miss) and ns2 (hit).
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.delegation_addresses(DomainName("other.com")) is None
        assert (cache.hits, cache.misses) == (2, 2)
        assert metrics.snapshot("cache") == {"cache.hits": 2, "cache.misses": 2}

    def test_unchanged_ttl_returns_the_cached_record(self):
        clock, cache = _cache()
        record = a_record("www.example.com", "1.1.1.1", ttl=100)
        cache.put(record)
        assert cache.get("www.example.com", RecordType.A) == [record]
        clock.advance(30)
        (aged,) = cache.get("www.example.com", RecordType.A)
        assert (aged.name, aged.rtype, aged.rdata, aged.ttl) == (
            record.name, record.rtype, record.rdata, 70
        )
