"""Tests for nameserver fleets and scrubbing centres."""

import pytest

from repro.dns.client import DnsClient
from repro.dns.records import RecordType
from repro.dps.nameservers import generate_person_names
from repro.dps.scrubbing import ScrubbingCenter, ScrubbingNetwork
from repro.errors import ConfigurationError
from repro.net.geo import WELL_KNOWN_REGIONS, region
from repro.net.traffic import TrafficFlow


class TestPersonNames:
    def test_exact_count(self):
        assert len(generate_person_names(391)) == 391

    def test_all_unique(self):
        names = generate_person_names(391)
        assert len(set(names)) == 391

    def test_deterministic(self):
        assert generate_person_names(50) == generate_person_names(50)

    def test_suffix_rounds(self):
        names = generate_person_names(100)
        assert "ada" in names and "ada2" in names

    def test_small_counts(self):
        assert generate_person_names(1) == ["ada"]
        assert generate_person_names(0) == []


class TestNameserverFleet:
    def test_fleet_shares_one_backend(self, mini, cloudflare_like):
        fleet = cloudflare_like.customer_fleet
        cloudflare_like.onboard(
            "www.example.com", "172.16.0.10",
            cloudflare_like.build.rerouting_methods[0],
        )
        client = DnsClient(mini.fabric)
        # Every nameserver identity answers for the customer.
        for ip in fleet.all_addresses()[:4]:
            response = client.query(ip, "www.example.com", RecordType.A)
            assert response.is_answer

    def test_fleet_hostnames_resolve_publicly(self, mini, cloudflare_like):
        resolver = mini.hierarchy.make_resolver()
        hostname = cloudflare_like.customer_fleet.hostnames[0]
        result = resolver.resolve(hostname, RecordType.A)
        assert result.ok
        assert result.addresses == [cloudflare_like.customer_fleet.address_of(hostname)]

    def test_anycast_pop_counters(self, mini, cloudflare_like):
        fleet = cloudflare_like.customer_fleet
        ip = fleet.all_addresses()[0]
        pops = {pop.pop_id: pop for pop in cloudflare_like.anycast.pops}
        # Query from two different regions; counters land on their pops.
        for region_name in ("london", "tokyo"):
            client = DnsClient(mini.fabric, region(region_name))
            client.query(ip, "www.example.com", RecordType.A)
        counts = fleet.pop_query_counts()
        assert sum(counts.values()) == 2

    def test_pop_counts_equal_a_per_address_reference_sum(self, mini, cloudflare_like):
        fleet = cloudflare_like.customer_fleet
        anycast = cloudflare_like.anycast
        reference = {pop.pop_id: 0 for pop in anycast.pops}
        for i, ip in enumerate(fleet.all_addresses()):
            for name in sorted(WELL_KNOWN_REGIONS)[: 1 + i % 4]:
                client_region = region(name)
                DnsClient(mini.fabric, client_region).query(
                    ip, "www.example.com", RecordType.A
                )
                reference[anycast.catchment(client_region).pop_id] += 1
        counts = fleet.pop_query_counts()
        assert list(counts) == [pop.pop_id for pop in anycast.pops]
        assert counts == reference
        assert len({id(mirror) for mirror in fleet._mirrors.values()}) == len(anycast.pops)

    def test_empty_fleet_rejected(self, mini):
        from repro.dps.nameservers import NameserverFleet
        with pytest.raises(ValueError):
            NameserverFleet("x", [], mini.fabric, mini.allocator)


class TestScrubbing:
    def test_capacity_positive(self):
        with pytest.raises(ConfigurationError):
            ScrubbingCenter("pop", 0)

    def test_clean_within_capacity(self):
        center = ScrubbingCenter("pop", 100.0)
        report = center.scrub(TrafficFlow(legitimate_gbps=5.0, attack_gbps=50.0))
        assert not report.saturated
        assert report.forwarded.attack_gbps == 0.0
        assert report.forwarded.legitimate_gbps == pytest.approx(5.0)
        assert report.legitimate_survival == pytest.approx(1.0)
        assert report.dropped_attack_gbps == pytest.approx(50.0)

    def test_overwhelmed_center_leaks_attack(self):
        center = ScrubbingCenter("pop", 10.0)
        report = center.scrub(TrafficFlow(legitimate_gbps=10.0, attack_gbps=90.0))
        assert report.saturated
        assert report.forwarded.attack_gbps > 0.0
        assert report.legitimate_survival == pytest.approx(0.1)

    def test_network_capacity_is_sum(self):
        network = ScrubbingNetwork(
            [ScrubbingCenter(f"p{i}", 100.0) for i in range(10)]
        )
        assert network.total_capacity_gbps == pytest.approx(1000.0)

    def test_distributed_attack_absorbed_by_network(self):
        # 900 Gbps attack, 10 PoPs × 100 Gbps: each PoP sees 90+1 Gbps
        # and scrubs cleanly.
        network = ScrubbingNetwork(
            [ScrubbingCenter(f"p{i}", 100.0) for i in range(10)]
        )
        report = network.scrub_distributed(
            TrafficFlow(legitimate_gbps=10.0, attack_gbps=900.0)
        )
        assert not report.saturated
        assert report.forwarded.attack_gbps == pytest.approx(0.0)
        assert report.origin_bound_gbps == pytest.approx(10.0)

    def test_record_attack_saturates_network(self):
        network = ScrubbingNetwork(
            [ScrubbingCenter(f"p{i}", 100.0) for i in range(10)]
        )
        report = network.scrub_distributed(
            TrafficFlow(legitimate_gbps=10.0, attack_gbps=2000.0)
        )
        assert report.saturated

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigurationError):
            ScrubbingNetwork([])
