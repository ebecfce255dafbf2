"""Tests for zones: records, delegations, the existence index."""

import pytest

from repro.dns.name import DomainName, ROOT
from repro.dns.records import (
    DEFAULT_NS_TTL,
    RecordType,
    a_record,
    cname_record,
    mx_record,
    ns_record,
    soa_record,
)
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
        # Adding the CNAME first and data after it fails loudly too
        # (see test_data_after_a_cname_is_rejected); hosting code
        # clears the name first (remove_name + set).
        zone.add(cname_record("www.example.com", "edge.cdn.net"))
        assert zone.lookup("www.example.com", RecordType.CNAME)

    @pytest.mark.parametrize(
        "record",
        [
            a_record("www.example.com", "1.1.1.1"),
            ns_record("www.example.com", "ns1.other.net"),
            mx_record("www.example.com", "mail.example.com"),
            cname_record("www.example.com", "other.cdn.net"),
        ],
        ids=["A", "NS", "MX", "CNAME"],
    )
    def test_data_after_a_cname_is_rejected(self, zone, record):
        zone.add(cname_record("www.example.com", "edge.cdn.net"))
        before = (zone.serial, len(zone))
        with pytest.raises(ZoneError):
            zone.add(record)
        assert (zone.serial, len(zone)) == before
        assert zone.lookup("www.example.com", record.rtype) == (
            [cname_record("www.example.com", "edge.cdn.net")]
            if record.rtype is RecordType.CNAME
            else []
        )
        assert zone.delegation_covering("www.example.com") is None

    def test_set_a_beside_a_cname_is_rejected(self, zone):
        zone.add(cname_record("www.example.com", "edge.cdn.net"))
        with pytest.raises(ZoneError):
            zone.set_a("www.example.com", "1.1.1.1")
        assert zone.lookup("www.example.com", RecordType.A) == []
        zone.remove_all("www.example.com", RecordType.CNAME)
        zone.set_a("www.example.com", "1.1.1.1")
        assert [r.address for r in zone.lookup("www.example.com", RecordType.A)] == [
            IPv4Address("1.1.1.1")
        ]


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

    def test_refused_redelegation_keeps_the_cut_and_the_serial(self, zone):
        zone.delegate("sub.example.com", ["ns1.other.net"])
        serial = zone.serial
        with pytest.raises(ZoneError):
            zone.delegate("sub.example.com", [])
        assert zone.delegation_covering("x.sub.example.com") == DomainName("sub.example.com")
        targets = [r.target for r in zone.lookup("sub.example.com", RecordType.NS)]
        assert targets == [DomainName("ns1.other.net")]
        assert zone.serial == serial

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


class TestSerialSemantics:
    """The serial each write moves, as resolvers and tests observe it."""

    def test_set_a_onto_a_fresh_name_bumps_once(self, zone):
        before = zone.serial
        zone.set_a("www.example.com", "1.1.1.1")
        assert zone.serial == before + 1

    def test_set_a_onto_an_existing_rrset_bumps_twice(self, zone):
        zone.set_a("www.example.com", "1.1.1.1")
        before = zone.serial
        zone.set_a("www.example.com", "2.2.2.2")
        assert zone.serial == before + 2

    def test_replacing_a_two_record_rrset_keeps_the_store_consistent(self, zone):
        zone.add(a_record("a.example.com", "1.1.1.1"))
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.add(a_record("www.example.com", "2.2.2.2"))
        zone.add(mx_record("example.com", "mail.example.com"))
        before = zone.serial
        zone.set_a("www.example.com", "3.3.3.3", ttl=60)
        assert zone.serial == before + 2
        assert len(zone) == 3
        assert zone.name_exists("www.example.com")
        assert [r.address for r in zone.lookup("www.example.com", RecordType.A)] == [
            IPv4Address("3.3.3.3")
        ]
        # The replaced RRset moves to the end of the store, as a
        # remove_all followed by an add leaves it.
        assert [(str(r.name), r.rtype, r.ttl) for r in zone.all_records()] == [
            ("example.com", RecordType.SOA, zone.soa.ttl),
            ("a.example.com", RecordType.A, 300),
            ("example.com", RecordType.MX, DEFAULT_NS_TTL),
            ("www.example.com", RecordType.A, 60),
        ]
        zone.remove_all("www.example.com", RecordType.A)
        assert not zone.name_exists("www.example.com")
        assert zone.name_exists("a.example.com")

    def test_replace_swaps_a_cname_or_a_cut_in_place(self, zone):
        zone.add(cname_record("www.example.com", "edge.cdn.net"))
        zone.delegate("sub.example.com", ["ns1.other.net", "ns2.other.net"])
        before = zone.serial
        zone.replace(cname_record("www.example.com", "other.cdn.net"))
        zone.replace(ns_record("sub.example.com", "ns3.other.net"))
        assert zone.serial == before + 4
        assert len(zone) == 2
        assert [r.rdata for r in zone.lookup("www.example.com", RecordType.CNAME)] == [
            DomainName("other.cdn.net")
        ]
        assert zone.delegation_covering("host.sub.example.com") == DomainName("sub.example.com")
        zone.remove_all("sub.example.com", RecordType.NS)
        assert not zone.name_exists("sub.example.com")

    def test_soa_is_the_record_built_from_the_serial(self, zone):
        assert zone.soa == soa_record("example.com", "ns1.example.com", serial=zone.serial)
        zone.set_a("www.example.com", "1.1.1.1")
        zone.set_a("www.example.com", "2.2.2.2")
        assert zone.soa == soa_record("example.com", "ns1.example.com", serial=zone.serial)
        assert zone.lookup("example.com", RecordType.SOA) == [zone.soa]
        assert zone.all_records()[0] == zone.soa

    def test_nodata_authority_carries_the_current_serial(self, zone):
        from repro.dns.authoritative import AuthoritativeServer
        from repro.dns.message import DnsQuery

        server = AuthoritativeServer("ns1.example.com")
        server.host_zone(zone)
        zone.set_a("www.example.com", "1.1.1.1")
        query = DnsQuery(DomainName("www.example.com"), RecordType.MX)
        [soa] = server.handle_query(query).authority
        assert soa.rdata.serial == zone.serial
        zone.set_a("www.example.com", "2.2.2.2")
        [soa] = server.handle_query(query).authority
        assert soa.rdata.serial == zone.serial


class TestSetWwwSerial:
    @pytest.fixture
    def hosting(self):
        from repro.clock import SimulationClock
        from repro.dns.root import DnsHierarchy
        from repro.net.asn import AsRegistry
        from repro.net.fabric import NetworkFabric
        from repro.net.ipaddr import AddressAllocator
        from repro.world.hosting import HostingProvider

        fabric = NetworkFabric()
        allocator = AddressAllocator("10.0.0.0/8")
        hierarchy = DnsHierarchy(fabric, SimulationClock(), allocator)
        return HostingProvider("hostco", 64500, fabric, hierarchy, AsRegistry(), allocator)

    def test_set_www_a_moves_the_serial_by_four(self, hosting):
        zone = hosting.host_zone("example.com", IPv4Address("10.9.0.1"))
        www = DomainName("www.example.com")
        before = zone.serial
        hosting.set_www_a(www, IPv4Address("10.9.0.2"))
        # Two A RRsets replaced: each is a removal and an addition.
        assert zone.serial == before + 4
        assert [r.address for r in zone.lookup(www, RecordType.A)] == [IPv4Address("10.9.0.2")]

    def test_set_www_a_after_a_cname_moves_the_serial_by_four(self, hosting):
        zone = hosting.host_zone("example.com", IPv4Address("10.9.0.1"))
        hosting.set_www_cname(DomainName("www.example.com"), DomainName("edge.cdn.net"))
        before = zone.serial
        hosting.set_www_a(DomainName("www.example.com"), IPv4Address("10.9.0.2"))
        # The CNAME removal, a fresh www A, and the apex A replaced.
        assert zone.serial == before + 4
        assert zone.lookup("www.example.com", RecordType.CNAME) == []


class TestFootprint:
    """A zone is one per site: it holds no more than its records need."""

    def test_zone_has_no_instance_dict(self, zone):
        assert not hasattr(zone, "__dict__")

    def test_lookup_returns_a_fresh_list(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        first = zone.lookup("www.example.com", RecordType.A)
        first.append(a_record("www.example.com", "2.2.2.2"))
        first.clear()
        second = zone.lookup("www.example.com", RecordType.A)
        assert second is not first
        assert [r.address for r in second] == [IPv4Address("1.1.1.1")]

    def test_rrsets_are_stored_as_tuples(self, zone):
        zone.add(a_record("www.example.com", "1.1.1.1"))
        zone.add(a_record("www.example.com", "2.2.2.2"))
        zone.set_a("example.com", "3.3.3.3")
        assert all(type(bucket) is tuple for bucket in zone._records.values())

    def test_a_zone_without_cuts_holds_no_set_of_its_own(self, zone):
        other = Zone("example.org")
        zone.add(ns_record("example.com", "ns1.example.com"))
        assert zone._delegations is other._delegations
        assert not zone._delegations
        zone.delegate("sub.example.com", ["ns.sub.example.com"])
        assert zone._delegations is not other._delegations
        assert not other._delegations
        assert zone.delegation_covering("a.sub.example.com") == DomainName("sub.example.com")
        assert other.delegation_covering("a.sub.example.org") is None

    def test_removing_a_cut_from_a_zone_without_cuts_is_harmless(self, zone):
        assert zone.remove_all("sub.example.com", RecordType.NS) == 0
        assert zone.remove_name("sub.example.com") == 0
        zone.delegate("sub.example.com", ["ns.sub.example.com"])
        zone.clear()
        assert zone.delegation_covering("a.sub.example.com") is None
        assert zone._delegations is Zone("example.org")._delegations
