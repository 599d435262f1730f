"""Layer-2 substrate: pseudowires, ports, fabrics, providers."""

import numpy as np
import pytest

from repro.delaymodel.congestion import PersistentCongestion
from repro.delaymodel.jitter import JitterModel
from repro.errors import ConfigurationError, TopologyError
from repro.geo.cities import default_city_db
from repro.net.addr import IPv4Address
from tests.reference.objects import (
    CircuitProvider,
    Device,
    PeeringFabric,
    Port,
    PortKind,
    PortProfile,
    Pseudowire,
)


@pytest.fixture(scope="module")
def cities():
    return default_city_db()


def make_port(address: str, kind=PortKind.DIRECT, tail=0.5, wire=None,
              congestion=None):
    device = Device(name=f"d-{address}")
    iface = device.add_interface(IPv4Address.parse(address))
    profile = PortProfile(
        tail_rtt_ms=tail,
        congestion=congestion if congestion is not None else PortProfile(0.0).congestion,
    )
    return Port(interface=iface, kind=kind, profile=profile, pseudowire=wire)


class TestPseudowire:
    def test_base_rtt_exceeds_propagation(self, cities):
        wire = Pseudowire(cities.get("Budapest"), cities.get("Amsterdam"),
                          overhead_ms=2.0)
        assert wire.base_rtt_ms() > 15.0  # ~1,150 km + overhead
        assert wire.distance_km() == pytest.approx(1140, rel=0.05)

    def test_negative_overhead_rejected(self, cities):
        with pytest.raises(ConfigurationError):
            Pseudowire(cities.get("Paris"), cities.get("London"),
                       overhead_ms=-0.1)


class TestPort:
    def test_remote_needs_wire(self):
        with pytest.raises(ConfigurationError):
            make_port("10.0.0.1", kind=PortKind.REMOTE)

    def test_direct_cannot_carry_wire(self, cities):
        wire = Pseudowire(cities.get("Rome"), cities.get("Milan"))
        with pytest.raises(ConfigurationError):
            make_port("10.0.0.1", kind=PortKind.DIRECT, wire=wire)

    def test_is_remote(self, cities):
        wire = Pseudowire(cities.get("Rome"), cities.get("Milan"))
        port = make_port("10.0.0.2", kind=PortKind.REMOTE, wire=wire)
        assert port.is_remote
        assert not make_port("10.0.0.3").is_remote

    def test_negative_tail_rejected(self):
        with pytest.raises(ConfigurationError):
            PortProfile(tail_rtt_ms=-1.0)


class TestFabric:
    def test_attach_and_lookup(self):
        fabric = PeeringFabric(name="X")
        port = make_port("10.0.0.1")
        fabric.attach(port)
        assert fabric.has_address(IPv4Address.parse("10.0.0.1"))
        assert fabric.port_for(IPv4Address.parse("10.0.0.1")) is port

    def test_duplicate_address_rejected(self):
        fabric = PeeringFabric(name="X")
        fabric.attach(make_port("10.0.0.1"))
        with pytest.raises(TopologyError):
            fabric.attach(make_port("10.0.0.1"))

    def test_unknown_address(self):
        fabric = PeeringFabric(name="X")
        with pytest.raises(TopologyError):
            fabric.port_for(IPv4Address.parse("10.9.9.9"))

    def test_base_path_rtt_sums_tails(self):
        fabric = PeeringFabric(name="X", switch_crossing_ms=0.02)
        a = make_port("10.0.0.1", tail=0.3)
        b = make_port("10.0.0.2", tail=0.7)
        fabric.attach(a)
        fabric.attach(b)
        assert fabric.base_path_rtt_ms(a, b) == pytest.approx(1.02)

    def test_path_rtt_adds_jitter(self):
        fabric = PeeringFabric(name="X", jitter=JitterModel(scale_ms=0.1,
                                                            floor_ms=0.05))
        a, b = make_port("10.0.0.1"), make_port("10.0.0.2")
        fabric.attach(a)
        fabric.attach(b)
        rng = np.random.default_rng(0)
        base = fabric.base_path_rtt_ms(a, b)
        samples = [fabric.path_rtt_ms(a, b, 0.0, rng) for _ in range(50)]
        assert all(s > base for s in samples)

    def test_congestion_inflates_rtt(self):
        fabric = PeeringFabric(name="X", jitter=JitterModel(0.0, 0.0))
        a = make_port("10.0.0.1")
        b = make_port(
            "10.0.0.2",
            congestion=PersistentCongestion(floor_ms=10.0, spread_ms=5.0),
        )
        fabric.attach(a)
        fabric.attach(b)
        rng = np.random.default_rng(1)
        rtt = fabric.path_rtt_ms(a, b, 0.0, rng)
        assert rtt >= fabric.base_path_rtt_ms(a, b) + 10.0

    def test_multisite_backhaul(self):
        fabric = PeeringFabric(name="X")
        a, b = make_port("10.0.0.1"), make_port("10.0.0.2")
        fabric.attach(a, site="main")
        fabric.attach(b, site="annex")
        with pytest.raises(TopologyError):
            fabric.base_path_rtt_ms(a, b)  # no backhaul declared
        fabric.set_intersite_rtt("main", "annex", 0.4)
        same_site = make_port("10.0.0.3")
        fabric.attach(same_site, site="main")
        cross = fabric.base_path_rtt_ms(a, b)
        local = fabric.base_path_rtt_ms(a, same_site)
        assert cross == pytest.approx(local + 0.4, abs=0.01)


class TestProvider:
    def test_provision_requires_presence(self, cities):
        provider = CircuitProvider(name="carrier")
        with pytest.raises(ConfigurationError):
            provider.provision(cities.get("Rome"), cities.get("Amsterdam"))

    def test_provision_inherits_overhead(self, cities):
        provider = CircuitProvider(name="carrier", overhead_ms=1.5)
        provider.add_presence(cities.get("Amsterdam"))
        wire = provider.provision(cities.get("Rome"), cities.get("Amsterdam"))
        assert wire.overhead_ms == 1.5
        assert provider.circuits == [wire]

    def test_serves(self, cities):
        provider = CircuitProvider(name="carrier")
        provider.add_presence(cities.get("London"))
        assert provider.serves(cities.get("London"))
        assert not provider.serves(cities.get("Tokyo"))
