"""AS graph construction and queries."""

import pytest

from repro.bgp.asys import AutonomousSystem
from repro.errors import ConfigurationError, TopologyError
from repro.types import ASN
from tests.reference.relationships import ASGraph, Relationship


def build_graph(n: int) -> ASGraph:
    g = ASGraph()
    for i in range(1, n + 1):
        g.add_as(AutonomousSystem(asn=ASN(i), name=f"as{i}"))
    return g


class TestNodes:
    def test_add_and_get(self):
        g = build_graph(2)
        assert g.get(ASN(1)).name == "as1"
        assert len(g) == 2
        assert ASN(1) in g

    def test_duplicate_asn_rejected(self):
        g = build_graph(1)
        with pytest.raises(TopologyError):
            g.add_as(AutonomousSystem(asn=ASN(1), name="dup"))

    def test_unknown_asn(self):
        g = build_graph(1)
        with pytest.raises(TopologyError):
            g.get(ASN(99))

    def test_invalid_asn_rejected(self):
        with pytest.raises(ConfigurationError):
            AutonomousSystem(asn=ASN(0), name="zero")

    def test_asns_sorted(self):
        g = build_graph(5)
        assert g.asns() == [1, 2, 3, 4, 5]


class TestEdges:
    def test_customer_provider(self):
        g = build_graph(2)
        g.add_customer_provider(ASN(1), ASN(2))
        assert g.providers_of(ASN(1)) == {2}
        assert g.customers_of(ASN(2)) == {1}
        assert g.relationship(ASN(1), ASN(2)) is Relationship.PROVIDER
        assert g.relationship(ASN(2), ASN(1)) is Relationship.CUSTOMER

    def test_peering_symmetric(self):
        g = build_graph(2)
        g.add_peering(ASN(1), ASN(2))
        assert g.relationship(ASN(1), ASN(2)) is Relationship.PEER
        assert g.relationship(ASN(2), ASN(1)) is Relationship.PEER

    def test_no_relationship(self):
        g = build_graph(2)
        assert g.relationship(ASN(1), ASN(2)) is None

    def test_self_edge_rejected(self):
        g = build_graph(1)
        with pytest.raises(TopologyError):
            g.add_peering(ASN(1), ASN(1))

    def test_contradictory_relationship_rejected(self):
        g = build_graph(2)
        g.add_customer_provider(ASN(1), ASN(2))
        with pytest.raises(TopologyError):
            g.add_peering(ASN(1), ASN(2))
        with pytest.raises(TopologyError):
            g.add_customer_provider(ASN(2), ASN(1))

    def test_degree(self):
        g = build_graph(4)
        g.add_customer_provider(ASN(1), ASN(2))
        g.add_peering(ASN(1), ASN(3))
        assert g.degree(ASN(1)) == 2
        assert g.degree(ASN(4)) == 0

    def test_provider_free(self):
        g = build_graph(3)
        g.add_customer_provider(ASN(2), ASN(1))
        g.add_customer_provider(ASN(3), ASN(2))
        assert g.provider_free() == [1]


class TestAcyclicity:
    def test_clean_hierarchy_passes(self):
        g = build_graph(4)
        g.add_customer_provider(ASN(2), ASN(1))
        g.add_customer_provider(ASN(3), ASN(1))
        g.add_customer_provider(ASN(4), ASN(2))
        g.assert_hierarchy_acyclic()

    def test_cycle_detected(self):
        g = build_graph(3)
        g.add_customer_provider(ASN(1), ASN(2))
        g.add_customer_provider(ASN(2), ASN(3))
        g.add_customer_provider(ASN(3), ASN(1))
        with pytest.raises(TopologyError):
            g.assert_hierarchy_acyclic()

    def test_diamond_is_not_a_cycle(self):
        g = build_graph(4)
        g.add_customer_provider(ASN(4), ASN(2))
        g.add_customer_provider(ASN(4), ASN(3))
        g.add_customer_provider(ASN(2), ASN(1))
        g.add_customer_provider(ASN(3), ASN(1))
        g.assert_hierarchy_acyclic()
