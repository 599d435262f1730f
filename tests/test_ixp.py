"""IXP model, the 22-IXP catalog, the Euro-IX set, partnerships."""

import pytest

from repro.bgp.asys import AutonomousSystem
from repro.errors import ConfigurationError
from repro.geo.cities import default_city_db
from repro.ixp.catalog import IXPSpec, paper_catalog, spec_by_acronym
from repro.ixp.euroix import euroix_catalog
from repro.ixp.ixp import IXP
from repro.ixp.partnerships import Partnership
from repro.layer2.pseudowire import Pseudowire
from repro.net.addr import IPv4Prefix
from repro.net.device import Device
from repro.types import ASN, PortKind


@pytest.fixture
def cities():
    return default_city_db()


@pytest.fixture
def ixp(cities):
    return IXP(
        acronym="TEST-IX",
        full_name="Test Exchange",
        city=cities.get("Vienna"),
        country="Austria",
        lan=IPv4Prefix.parse("10.42.0.0/24"),
    )


def network(asn: int) -> AutonomousSystem:
    return AutonomousSystem(asn=ASN(asn), name=f"as{asn}")


class TestIXPMembership:
    def test_register_idempotent(self, ixp):
        n = network(100)
        m1 = ixp.register(n)
        m2 = ixp.register(n)
        assert m1 is m2
        assert ixp.members == [m1]

    def test_direct_interface(self, ixp):
        m = ixp.register(network(100))
        d = Device(name="r100")
        iface = ixp.add_interface(m, d, PortKind.DIRECT, tail_rtt_ms=0.5)
        assert not iface.is_remote
        assert iface.asn == 100
        assert iface.address in ixp.lan
        assert ixp.fabric.has_address(iface.address)

    def test_remote_interface(self, ixp, cities):
        m = ixp.register(network(200))
        d = Device(name="r200")
        wire = Pseudowire(cities.get("Rome"), ixp.city)
        iface = ixp.add_interface(m, d, PortKind.REMOTE, pseudowire=wire)
        assert iface.is_remote
        assert m.is_remote
        assert ixp.interfaces() == [iface]

    def test_mixed_member_not_fully_remote(self, ixp, cities):
        m = ixp.register(network(300))
        wire = Pseudowire(cities.get("Rome"), ixp.city)
        ixp.add_interface(m, Device(name="a"), PortKind.REMOTE, pseudowire=wire)
        ixp.add_interface(m, Device(name="b"), PortKind.DIRECT, tail_rtt_ms=0.4)
        assert not m.is_remote

    def test_direct_requires_tail(self, ixp):
        m = ixp.register(network(100))
        with pytest.raises(ConfigurationError):
            ixp.add_interface(m, Device(name="x"), PortKind.DIRECT)

    def test_remote_requires_wire(self, ixp):
        m = ixp.register(network(100))
        with pytest.raises(ConfigurationError):
            ixp.add_interface(m, Device(name="x"), PortKind.REMOTE)

    def test_foreign_member_rejected(self, ixp, cities):
        other = IXP(
            acronym="OTHER", full_name="Other", city=cities.get("Paris"),
            country="France", lan=IPv4Prefix.parse("10.43.0.0/24"),
        )
        m = other.register(network(100))
        with pytest.raises(ConfigurationError):
            ixp.add_interface(m, Device(name="x"), PortKind.DIRECT,
                              tail_rtt_ms=0.2)

    def test_addresses_unique(self, ixp):
        m = ixp.register(network(100))
        seen = set()
        for i in range(10):
            iface = ixp.add_interface(
                m, Device(name=f"d{i}"), PortKind.DIRECT, tail_rtt_ms=0.2
            )
            seen.add(iface.address.value)
        assert len(seen) == 10


class TestCatalog:
    def test_has_22_ixps(self):
        assert len(paper_catalog()) == 22

    def test_analyzed_total_matches_paper(self):
        assert sum(s.analyzed_interfaces for s in paper_catalog()) == 4451

    def test_spec_lookup(self):
        spec = spec_by_acronym("AMS-IX")
        assert spec.city_name == "Amsterdam"
        assert spec.member_count == 638
        with pytest.raises(ConfigurationError):
            spec_by_acronym("NOPE-IX")

    def test_no_remote_at_dixie_and_cabase(self):
        assert spec_by_acronym("DIX-IE").remote_fraction == 0.0
        assert spec_by_acronym("CABASE").remote_fraction == 0.0

    def test_biggest_remote_fraction_near_paper_fifth(self):
        # AMS-IX staff: about one fifth of members were remote peers.
        assert spec_by_acronym("AMS-IX").remote_fraction == pytest.approx(0.20)

    def test_every_spec_has_lg(self):
        for spec in paper_catalog():
            assert spec.has_pch_lg or spec.has_ripe_lg

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            IXPSpec("X", "X", "Y", "Z", 1.0, 10, 10, 1.5, (1, 0, 0))


class TestEuroIX:
    def test_65_ixps(self):
        assert len(euroix_catalog()) == 65

    def test_superset_of_studied(self):
        acronyms = {s.acronym for s in euroix_catalog()}
        assert {s.acronym for s in paper_catalog()} <= acronyms

    def test_named_offload_ixps_present(self):
        acronyms = {s.acronym for s in euroix_catalog()}
        assert {"Terremark", "SFINX", "CoreSite", "NL-ix",
                "CATNIX", "ESpanix"} <= acronyms

    def test_acronyms_unique(self):
        acronyms = [s.acronym for s in euroix_catalog()]
        assert len(acronyms) == len(set(acronyms))

    def test_all_cities_in_db(self, cities):
        for spec in euroix_catalog():
            assert spec.city_name in cities


class TestPartnership:
    def test_self_partnership_rejected(self, cities):
        with pytest.raises(ConfigurationError):
            Partnership("A", "A", cities.get("Turin"), cities.get("Padua"),
                        "x")
