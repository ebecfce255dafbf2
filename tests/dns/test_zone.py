"""Tests for zones: records, delegations, the existence index."""

import pytest

from repro.dns.name import DomainName, ROOT
from repro.dns.records import RecordType, a_record, cname_record, mx_record, ns_record
from repro.dns.zone import Zone
from repro.errors import ZoneError
from repro.net.ipaddr import IPv4Address


@pytest.fixture
def zone() -> Zone:
    return Zone("example.com", primary_ns="ns1.example.com")


class TestMutation:
    def test_add_and_lookup(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        records = zone.lookup("www.example.com", RecordType.A)
        assert len(records) == 1
        assert records[0].address == IPv4Address("1.1.1.1")

    def test_lookup_missing_is_empty(self, zone):
        assert zone.lookup("www.example.com", RecordType.A) == []

    def test_duplicate_record_rejected(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        with pytest.raises(ZoneError):
            zone.add(a_record("www.example.com", "1.1.1.1"))

    def test_multiple_a_records_allowed(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.add(a_record("www.example.com", "2.2.2.2"))
        assert len(zone.lookup("www.example.com", RecordType.A)) == 2

    def test_out_of_zone_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add(a_record("www.other.com", "1.1.1.1"))

    def test_soa_via_add_rejected(self, zone):
        from repro.dns.records import soa_record
        with pytest.raises(ZoneError):
            zone.add(soa_record("example.com", "ns1.example.com"))

    def test_replace(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.replace(a_record("www.example.com", "2.2.2.2"))
        records = zone.lookup("www.example.com", RecordType.A)
        assert [r.address for r in records] == [IPv4Address("2.2.2.2")]

    def test_set_a_is_replace(self, zone):
        zone.set_a("www.example.com", "1.1.1.1")
        zone.set_a("www.example.com", "2.2.2.2")
        assert len(zone.lookup("www.example.com", RecordType.A)) == 1

    def test_remove_all_returns_count(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.add(a_record("www.example.com", "2.2.2.2"))
        assert zone.remove_all("www.example.com", RecordType.A) == 2
        assert zone.remove_all("www.example.com", RecordType.A) == 0

    def test_remove_name_all_types(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.add(mx_record("www.example.com", "mail.example.com"))
        assert zone.remove_name("www.example.com") == 2
        assert not zone.name_exists("www.example.com")

    def test_clear(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.clear()
        assert len(zone) == 0
        assert not zone.name_exists("www.example.com")

    def test_serial_bumps_on_mutation(self, zone):
        before = zone.serial
        zone.add(a_record("www.example.com", "1.1.1.1"))
        assert zone.serial == before + 1
        zone.remove_all("www.example.com", RecordType.A)
        assert zone.serial == before + 2

    def test_noop_removal_does_not_bump_serial(self, zone):
        before = zone.serial
        zone.remove_all("www.example.com", RecordType.A)
        assert zone.serial == before

    def test_soa_keeps_its_primary_and_tracks_the_serial(self, zone):
        assert zone.soa.rtype is RecordType.SOA
        assert zone.soa.name == zone.origin
        assert zone.soa.rdata.primary_ns == DomainName("ns1.example.com")
        zone.add(a_record("www.example.com", "1.1.1.1", ttl=60))
        assert zone.soa.rdata.serial == zone.serial
        assert zone.soa.rdata.primary_ns == DomainName("ns1.example.com")

    def test_records_keep_their_ttl(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1", ttl=60))
        zone.add(a_record("mail.example.com", "1.1.1.2", ttl=3600))
        [www] = zone.lookup("www.example.com", RecordType.A)
        [mail] = zone.lookup("mail.example.com", RecordType.A)
        assert (www.ttl, mail.ttl) == (60, 3600)


class TestCnameConstraints:
    def test_cname_conflicts_with_existing_data(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        with pytest.raises(ZoneError):
            zone.add(cname_record("www.example.com", "edge.cdn.net"))

    def test_data_beside_cname_is_allowed_to_fail_loudly(self, zone):
        # Our model only enforces the CNAME-addition side; adding the
        # CNAME first then A data is the hosting code's responsibility
        # to avoid (it uses remove_name + set).
        zone.add(cname_record("www.example.com", "edge.cdn.net"))
        assert zone.lookup("www.example.com", RecordType.CNAME)


class TestDelegation:
    def test_delegate_creates_cut_and_glue(self, zone):
        zone.delegate(
            "sub.example.com",
            ["ns1.sub.example.com"],
            glue={"ns1.sub.example.com": "9.9.9.9"},
        )
        assert zone.delegation_covering("deep.sub.example.com") == DomainName("sub.example.com")
        assert zone.lookup("ns1.sub.example.com", RecordType.A)

    def test_delegation_covering_misses_siblings(self, zone):
        zone.delegate("sub.example.com", ["ns1.other.net"])
        assert zone.delegation_covering("www.example.com") is None

    def test_deepest_cut_wins(self, zone):
        zone.delegate("a.example.com", ["ns1.other.net"])
        zone.delegate("b.a.example.com", ["ns2.other.net"])
        assert zone.delegation_covering("x.b.a.example.com") == DomainName("b.a.example.com")

    def test_apex_ns_is_not_a_delegation(self, zone):
        zone.add(ns_record("example.com", "ns1.example.com"))
        assert zone.delegation_covering("www.example.com") is None

    def test_delegate_origin_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.delegate("example.com", ["ns1.other.net"])

    def test_delegate_requires_nameservers(self, zone):
        with pytest.raises(ZoneError):
            zone.delegate("sub.example.com", [])

    def test_redelegate_replaces(self, zone):
        zone.delegate("sub.example.com", ["ns1.other.net"])
        zone.delegate("sub.example.com", ["ns2.other.net"])
        targets = [r.target for r in zone.lookup("sub.example.com", RecordType.NS)]
        assert targets == [DomainName("ns2.other.net")]

    def test_undelegate(self, zone):
        zone.delegate("sub.example.com", ["ns1.other.net"])
        zone.undelegate("sub.example.com")
        assert zone.delegation_covering("x.sub.example.com") is None


class TestExistenceIndex:
    def test_origin_always_exists(self, zone):
        assert zone.name_exists("example.com")

    def test_empty_non_terminal(self, zone):
        zone.add(a_record("a.b.example.com", "1.1.1.1"))
        assert zone.name_exists("b.example.com")  # ENT
        assert zone.name_exists("a.b.example.com")
        assert not zone.name_exists("c.example.com")

    def test_index_tracks_removal(self, zone):
        zone.add(a_record("a.b.example.com", "1.1.1.1"))
        zone.remove_all("a.b.example.com", RecordType.A)
        assert not zone.name_exists("b.example.com")

    def test_index_counts_multiple_records(self, zone):
        zone.add(a_record("a.b.example.com", "1.1.1.1"))
        zone.add(a_record("other.b.example.com", "2.2.2.2"))
        zone.remove_all("a.b.example.com", RecordType.A)
        assert zone.name_exists("b.example.com")  # still one descendant


class TestRootZone:
    def test_root_zone_hosts_tld_delegations(self):
        root = Zone(ROOT, primary_ns="a.root-servers.net")
        root.delegate("com", ["ns.nic.com"], glue={"ns.nic.com": "8.8.8.8"})
        assert root.delegation_covering("www.example.com") == DomainName("com")

    def test_len_counts_records(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.add(mx_record("example.com", "mail.example.com"))
        assert len(zone) == 2

    def test_all_records_includes_soa(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        rtypes = {r.rtype for r in zone.all_records()}
        assert RecordType.SOA in rtypes and RecordType.A in rtypes
