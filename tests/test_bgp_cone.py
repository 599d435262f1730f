"""Customer cones."""

import pytest

from repro.bgp.asys import AutonomousSystem
from repro.bgp.cone import customer_cone
from repro.bgp.relationships import ASGraph
from repro.types import ASN


@pytest.fixture
def hierarchy():
    """1 is tier-1; 2, 3 are its customers; 4, 5 customers of 2; 5 also of 3."""
    g = ASGraph()
    for i in range(1, 6):
        g.add_as(AutonomousSystem(asn=ASN(i), name=f"as{i}", address_space=100 * i))
    g.add_customer_provider(ASN(2), ASN(1))
    g.add_customer_provider(ASN(3), ASN(1))
    g.add_customer_provider(ASN(4), ASN(2))
    g.add_customer_provider(ASN(5), ASN(2))
    g.add_customer_provider(ASN(5), ASN(3))
    return g


class TestCone:
    def test_stub_cone_is_self(self, hierarchy):
        assert customer_cone(hierarchy, ASN(4)) == {4}

    def test_transitive(self, hierarchy):
        assert customer_cone(hierarchy, ASN(1)) == {1, 2, 3, 4, 5}

    def test_multihomed_customer_in_both_cones(self, hierarchy):
        assert 5 in customer_cone(hierarchy, ASN(2))
        assert 5 in customer_cone(hierarchy, ASN(3))

    def test_peers_not_in_cone(self, hierarchy):
        hierarchy.add_as(AutonomousSystem(asn=ASN(6), name="peer"))
        hierarchy.add_peering(ASN(2), ASN(6))
        assert 6 not in customer_cone(hierarchy, ASN(2))
