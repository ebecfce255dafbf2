"""Tests for IPv4 addresses, prefixes, and the allocator."""

import copy
import pickle

import pytest

from repro.errors import AddressError, AllocationError
from repro.net.ipaddr import AddressAllocator, IPv4Address, IPv4Prefix


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert IPv4Address("1.2.3.4").value == (1 << 24) + (2 << 16) + (3 << 8) + 4

    def test_round_trip(self):
        assert str(IPv4Address("203.0.113.7")) == "203.0.113.7"

    def test_from_int(self):
        assert str(IPv4Address(0)) == "0.0.0.0"
        assert str(IPv4Address((1 << 32) - 1)) == "255.255.255.255"

    def test_copy_constructor(self):
        a = IPv4Address("10.0.0.1")
        assert IPv4Address(a) == a

    def test_constructor_returns_an_address_itself(self):
        a = IPv4Address("10.0.0.1")
        assert IPv4Address(a) is a

    @pytest.mark.parametrize(
        "clone",
        [
            lambda a: pickle.loads(pickle.dumps(a)),
            lambda a: pickle.loads(pickle.dumps(a, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
    )
    def test_round_trips_are_equal_and_hash_equal(self, clone):
        a = IPv4Address("198.51.100.23")
        b = clone(a)
        assert type(b) is IPv4Address
        assert b == a
        assert hash(b) == hash(a)
        assert {a: 1}[b] == 1

    def test_out_of_range_int(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)
        with pytest.raises(AddressError):
            IPv4Address(-1)

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "1.2.3.256", "a.b.c.d", "", "1..2.3"]
    )
    def test_malformed_strings(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert IPv4Address("9.255.255.255") <= IPv4Address("10.0.0.0")

    def test_hashable_and_equal(self):
        assert len({IPv4Address("1.1.1.1"), IPv4Address("1.1.1.1")}) == 1

    def test_not_equal_to_other_types(self):
        assert IPv4Address("1.1.1.1") != "1.1.1.1a"
        assert IPv4Address("1.1.1.1") != 17

    def test_addition(self):
        assert IPv4Address("10.0.0.255") + 1 == IPv4Address("10.0.1.0")


class TestIPv4Prefix:
    def test_parse(self):
        prefix = IPv4Prefix("198.51.100.0/24")
        assert str(prefix) == "198.51.100.0/24"
        assert prefix.length == 24
        assert prefix.num_addresses == 256

    def test_host_bits_cleared(self):
        assert IPv4Prefix("10.0.0.7/8") == IPv4Prefix("10.0.0.0/8")

    def test_missing_length_rejected(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0")

    def test_bad_length_rejected(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0/33")

    def test_contains_address(self):
        prefix = IPv4Prefix("192.0.2.0/24")
        assert "192.0.2.99" in prefix
        assert "192.0.3.0" not in prefix

    def test_slash_zero_contains_everything(self):
        assert "255.1.2.3" in IPv4Prefix("0.0.0.0/0")

    def test_slash_32_is_single_address(self):
        prefix = IPv4Prefix("10.1.2.3/32")
        assert prefix.num_addresses == 1
        assert "10.1.2.3" in prefix
        assert "10.1.2.4" not in prefix

    def test_contains_prefix(self):
        outer = IPv4Prefix("10.0.0.0/8")
        inner = IPv4Prefix("10.5.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)

    def test_overlaps(self):
        a = IPv4Prefix("10.0.0.0/8")
        b = IPv4Prefix("10.200.0.0/16")
        c = IPv4Prefix("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_subnets(self):
        halves = list(IPv4Prefix("10.0.0.0/8").subnets(9))
        assert [str(h) for h in halves] == ["10.0.0.0/9", "10.128.0.0/9"]

    def test_subnets_bad_length(self):
        with pytest.raises(AddressError):
            list(IPv4Prefix("10.0.0.0/16").subnets(8))

    def test_address_at(self):
        prefix = IPv4Prefix("192.0.2.0/30")
        assert str(prefix.address_at(3)) == "192.0.2.3"
        with pytest.raises(AddressError):
            prefix.address_at(4)

    def test_addresses_iteration(self):
        addresses = list(IPv4Prefix("192.0.2.0/30").addresses())
        assert len(addresses) == 4
        assert addresses[0] == IPv4Address("192.0.2.0")

    def test_hash_and_equality(self):
        assert len({IPv4Prefix("10.0.0.0/8"), IPv4Prefix("10.1.0.0/8")}) == 1


class TestAddressAllocator:
    def test_sequential_addresses(self):
        alloc = AddressAllocator("10.0.0.0/30")
        ips = alloc.allocate_addresses(4)
        assert [str(ip) for ip in ips] == [
            "10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3",
        ]

    def test_exhaustion(self):
        alloc = AddressAllocator("10.0.0.0/31")
        alloc.allocate_addresses(2)
        with pytest.raises(AllocationError):
            alloc.allocate_address()

    def test_prefixes_disjoint(self):
        alloc = AddressAllocator("10.0.0.0/16")
        a = alloc.allocate_prefix(24)
        b = alloc.allocate_prefix(24)
        assert not a.overlaps(b)

    def test_prefix_alignment_after_single_address(self):
        alloc = AddressAllocator("10.0.0.0/16")
        alloc.allocate_address()  # cursor now unaligned
        prefix = alloc.allocate_prefix(24)
        assert prefix.network.value % prefix.num_addresses == 0

    def test_prefix_larger_than_block_rejected(self):
        alloc = AddressAllocator("10.0.0.0/24")
        with pytest.raises(AllocationError):
            alloc.allocate_prefix(16)

    def test_prefix_exhaustion(self):
        alloc = AddressAllocator("10.0.0.0/24")
        alloc.allocate_prefix(25)
        alloc.allocate_prefix(25)
        with pytest.raises(AllocationError):
            alloc.allocate_prefix(25)

    def test_remaining_decreases(self):
        alloc = AddressAllocator("10.0.0.0/24")
        before = alloc.remaining
        alloc.allocate_address()
        assert alloc.remaining == before - 1
