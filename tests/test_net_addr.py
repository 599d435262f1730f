"""IPv4 addressing and allocators."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.net.addr import IPv4Address, IPv4Prefix, SubnetAllocator
from tests.reference.objects import HostAllocator


class TestIPv4Address:
    def test_parse_and_str_round_trip(self):
        a = IPv4Address.parse("193.0.2.17")
        assert str(a) == "193.0.2.17"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_value_round_trip(self, value):
        a = IPv4Address(value)
        assert IPv4Address.parse(str(a)).value == value

    @pytest.mark.parametrize(
        "text", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", ""]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(AddressError):
            IPv4Address.parse(text)

    def test_out_of_range_value(self):
        with pytest.raises(AddressError):
            IPv4Address(2**32)

    def test_offset(self):
        assert str(IPv4Address.parse("10.0.0.255").offset(1)) == "10.0.1.0"

    def test_ordering(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")


class TestIPv4Prefix:
    def test_parse(self):
        p = IPv4Prefix.parse("193.203.0.0/22")
        assert str(p) == "193.203.0.0/22"
        assert p.size() == 1024
        assert p.usable_hosts() == 1022

    def test_host_bits_must_be_clear(self):
        with pytest.raises(AddressError):
            IPv4Prefix.parse("10.0.0.1/24")

    def test_contains(self):
        p = IPv4Prefix.parse("10.1.0.0/16")
        assert IPv4Address.parse("10.1.2.3") in p
        assert IPv4Address.parse("10.2.0.0") not in p

    def test_host_indexing(self):
        alloc = HostAllocator(IPv4Prefix.parse("10.0.0.0/30"))
        assert str(alloc.allocate()) == "10.0.0.1"
        assert str(alloc.allocate()) == "10.0.0.2"
        with pytest.raises(AddressError, match="host index 3"):
            alloc.allocate()  # only 2 usable in a /30

    def test_subnets(self):
        p = IPv4Prefix.parse("10.0.0.0/22")
        subs = list(p.subnets(24))
        assert len(subs) == 4
        assert str(subs[0]) == "10.0.0.0/24"
        assert str(subs[3]) == "10.0.3.0/24"

    def test_subnets_cannot_grow(self):
        with pytest.raises(AddressError):
            list(IPv4Prefix.parse("10.0.0.0/24").subnets(20))

    # Allocating every host of a /8 would take 16M steps; from /20 down,
    # every one is checked.
    @given(st.integers(min_value=20, max_value=30))
    def test_all_hosts_in_prefix(self, length):
        p = IPv4Prefix(IPv4Address(0x0A000000), length)
        alloc = HostAllocator(p)
        hosts = [alloc.allocate() for _ in range(p.usable_hosts())]
        assert all(host in p for host in hosts)
        assert hosts[-1].value == p.network.value + p.usable_hosts()
        with pytest.raises(AddressError):
            alloc.allocate()


class TestAllocators:
    def test_subnet_allocator_sequence(self):
        alloc = SubnetAllocator(IPv4Prefix.parse("10.0.0.0/22"), 24)
        got = [str(alloc.allocate()) for _ in range(4)]
        assert got == ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"]
        with pytest.raises(AddressError):
            alloc.allocate()

    def test_subnet_allocator_rejects_bigger_subnet(self):
        with pytest.raises(AddressError):
            SubnetAllocator(IPv4Prefix.parse("10.0.0.0/24"), 22)

    def test_host_allocator(self):
        alloc = HostAllocator(IPv4Prefix.parse("10.0.0.0/29"))
        first = alloc.allocate()
        assert str(first) == "10.0.0.1"
        for _ in range(5):
            alloc.allocate()
        with pytest.raises(AddressError):
            alloc.allocate()

    def test_host_allocator_unique(self):
        alloc = HostAllocator(IPv4Prefix.parse("10.0.0.0/26"))
        seen = {alloc.allocate().value for _ in range(62)}
        assert len(seen) == 62
