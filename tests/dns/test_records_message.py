"""Tests for resource records and DNS messages."""

import sys

import pytest

from repro.dns.message import DnsQuery, DnsResponse, Rcode
from repro.dns.name import DomainName
from repro.dns.records import (
    RecordType,
    ResourceRecord,
    a_record,
    cname_record,
    mx_record,
    ns_record,
    soa_record,
    txt_record,
)
from repro.errors import ZoneError
from repro.net.ipaddr import IPv4Address


class TestRecordConstruction:
    def test_a_record(self):
        record = a_record("www.example.com", "1.2.3.4", ttl=60)
        assert record.rtype is RecordType.A
        assert record.address == IPv4Address("1.2.3.4")
        assert record.ttl == 60

    def test_cname_record(self):
        record = cname_record("www.example.com", "edge.cdn.net")
        assert record.target == DomainName("edge.cdn.net")

    def test_ns_and_mx_targets(self):
        assert ns_record("example.com", "ns1.example.com").target == "ns1.example.com"
        assert mx_record("example.com", "mail.example.com").target == "mail.example.com"

    def test_txt_record(self):
        assert txt_record("example.com", "v=spf1").rdata == "v=spf1"

    def test_soa_record(self):
        record = soa_record("example.com", "ns1.example.com", serial=7)
        assert record.rtype is RecordType.SOA

    def test_negative_ttl_rejected(self):
        with pytest.raises(ZoneError):
            a_record("a.com", "1.2.3.4", ttl=-1)

    def test_rdata_type_mismatch_rejected(self):
        with pytest.raises(ZoneError):
            ResourceRecord(DomainName("a.com"), RecordType.A, 60, DomainName("b.com"))
        with pytest.raises(ZoneError):
            ResourceRecord(DomainName("a.com"), RecordType.CNAME, 60, IPv4Address("1.1.1.1"))

    def test_address_accessor_on_non_a_raises(self):
        with pytest.raises(ZoneError):
            _ = cname_record("a.com", "b.com").address

    def test_target_accessor_on_a_raises(self):
        with pytest.raises(ZoneError):
            _ = a_record("a.com", "1.1.1.1").target

    def test_with_ttl(self):
        record = a_record("a.com", "1.1.1.1", ttl=300)
        clone = record.with_ttl(10)
        assert clone.ttl == 10
        assert clone.rdata == record.rdata
        assert record.ttl == 300  # original untouched

    @pytest.mark.skipif(sys.version_info < (3, 10), reason="dataclass slots need 3.10")
    def test_records_have_no_instance_dict(self):
        record = a_record("a.com", "1.1.1.1")
        assert not hasattr(record, "__dict__")
        assert not hasattr(record.with_ttl(10), "__dict__")


def _response(**kwargs) -> DnsResponse:
    query = DnsQuery(DomainName("www.example.com"), RecordType.A)
    return DnsResponse(query=query, **kwargs)


class TestDnsResponse:
    def test_answer_classification(self):
        response = _response(answers=[a_record("www.example.com", "1.1.1.1")])
        assert response.is_answer
        assert not response.is_referral
        assert not response.is_empty_noerror

    def test_referral_classification(self):
        response = _response(
            authority=[ns_record("example.com", "ns1.example.com")],
            additional=[a_record("ns1.example.com", "2.2.2.2")],
        )
        assert response.is_referral
        assert response.referral_nameservers() == [DomainName("ns1.example.com")]
        assert response.glue_for(DomainName("ns1.example.com")) == [IPv4Address("2.2.2.2")]
        assert response.glue_for(DomainName("ns2.example.com")) == []

    def test_nodata_classification(self):
        response = _response()
        assert response.is_empty_noerror
        assert not response.is_answer

    def test_nxdomain_is_not_answer(self):
        response = DnsResponse.nxdomain(DnsQuery(DomainName("x.com"), RecordType.A))
        assert response.rcode is Rcode.NXDOMAIN
        assert not response.is_answer
        assert not response.is_referral

    def test_refused_constructor(self):
        response = DnsResponse.refused(DnsQuery(DomainName("x.com"), RecordType.A))
        assert response.rcode is Rcode.REFUSED

    def test_servfail_constructor(self):
        response = DnsResponse.servfail(DnsQuery(DomainName("x.com"), RecordType.A))
        assert response.rcode is Rcode.SERVFAIL

    def test_addresses_extraction(self):
        response = _response(
            answers=[
                cname_record("www.example.com", "edge.cdn.net"),
                a_record("edge.cdn.net", "3.3.3.3"),
            ]
        )
        assert response.addresses() == [IPv4Address("3.3.3.3")]
        assert response.cname_target() == DomainName("edge.cdn.net")

    def test_cname_target_absent(self):
        assert _response(answers=[a_record("www.example.com", "1.1.1.1")]).cname_target() is None

    def test_answer_records_filters_by_type(self):
        response = _response(
            answers=[
                cname_record("www.example.com", "e.cdn.net"),
                a_record("e.cdn.net", "1.1.1.1"),
            ]
        )
        assert len(response.answer_records(RecordType.CNAME)) == 1
        assert len(response.answer_records(RecordType.A)) == 1
        assert response.answer_records(RecordType.NS) == []
