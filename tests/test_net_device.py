"""Device/interface behaviour, including the TTL semantics the filters rely on."""

import pytest

from repro.errors import ConfigurationError
from repro.net.addr import IPv4Address
from repro.net.device import TTL_LINUX, TTL_NETWORK_OS
from tests.reference.objects import Device


def make_device(**kwargs):
    defaults = {"name": "rtr-test"}
    defaults.update(kwargs)
    return Device(**defaults)


class TestConstruction:
    def test_defaults(self):
        d = make_device()
        assert d.ttl_init == TTL_NETWORK_OS
        assert d.respond_probability == 1.0

    def test_rejects_weird_ttl(self):
        with pytest.raises(ConfigurationError):
            make_device(ttl_init=100)

    def test_rare_ttls_allowed(self):
        assert make_device(ttl_init=32).ttl_init == 32
        assert make_device(ttl_init=128).ttl_init == 128

    def test_change_requires_time(self):
        with pytest.raises(ConfigurationError):
            make_device(ttl_after_change=TTL_LINUX)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            make_device(respond_probability=1.5)

    def test_rejects_negative_processing(self):
        with pytest.raises(ConfigurationError):
            make_device(processing_ms=-1)

    def test_device_ids_unique(self):
        assert make_device().device_id != make_device().device_id


class TestTTLSchedule:
    def test_no_change(self):
        d = make_device(ttl_init=TTL_LINUX)
        assert d.ttl_init_at(0.0) == TTL_LINUX
        assert d.ttl_init_at(1e9) == TTL_LINUX

    def test_os_change_flips_ttl(self):
        d = make_device(
            ttl_init=TTL_LINUX, ttl_after_change=TTL_NETWORK_OS,
            os_change_time=100.0,
        )
        assert d.ttl_init_at(99.9) == TTL_LINUX
        assert d.ttl_init_at(100.0) == TTL_NETWORK_OS
        assert d.ttl_init_at(500.0) == TTL_NETWORK_OS


class TestInterfaces:
    def test_add_interface(self):
        d = make_device()
        iface = d.add_interface(IPv4Address.parse("10.0.0.5"))
        assert iface.device is d
        assert d.interfaces == [iface]
        assert "10.0.0.5" in iface.name

    def test_custom_interface_name(self):
        d = make_device()
        iface = d.add_interface(IPv4Address.parse("10.0.0.6"), name="ge-0/0/1")
        assert iface.name == "ge-0/0/1"
