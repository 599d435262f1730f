"""Gao–Rexford route computation: preferences, exports, valley-freeness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.asys import AutonomousSystem
from repro.types import ASN
from tests.reference.cone import customer_cone
from tests.reference.relationships import ASGraph, Relationship
from tests.reference.routing import (
    ASPath,
    RouteComputation,
    RouteKind,
    RoutingError,
)


def build_graph(n: int) -> ASGraph:
    g = ASGraph()
    for i in range(1, n + 1):
        g.add_as(AutonomousSystem(asn=ASN(i), name=f"as{i}"))
    return g


@pytest.fixture
def clique_world():
    """Two tier-1s (1, 2) peering; 3, 4 customers of 1; 5, 6 customers of 2;
    7 customer of 3 (deep stub)."""
    g = build_graph(7)
    g.add_peering(ASN(1), ASN(2))
    g.add_customer_provider(ASN(3), ASN(1))
    g.add_customer_provider(ASN(4), ASN(1))
    g.add_customer_provider(ASN(5), ASN(2))
    g.add_customer_provider(ASN(6), ASN(2))
    g.add_customer_provider(ASN(7), ASN(3))
    return g


class TestASPath:
    def test_properties(self):
        p = ASPath((ASN(5), ASN(2), ASN(1)), RouteKind.PROVIDER)
        assert p.source == 5
        assert p.next_hop == 2
        assert p.length == 2
        assert p.intermediaries() == (2,)

    def test_loop_rejected(self):
        with pytest.raises(RoutingError):
            ASPath((ASN(1), ASN(2), ASN(1)), RouteKind.PEER)

    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            ASPath((), RouteKind.ORIGIN)

    def test_origin_next_hop_is_self(self):
        p = ASPath((ASN(9),), RouteKind.ORIGIN)
        assert p.next_hop == 9
        assert p.length == 0


class TestRouteComputation:
    def test_origin_route(self, clique_world):
        rc = RouteComputation(clique_world)
        paths = rc.best_paths_to(ASN(1))
        assert paths[ASN(1)].kind is RouteKind.ORIGIN

    def test_customer_route_up_the_chain(self, clique_world):
        rc = RouteComputation(clique_world)
        # 7 -> 3 -> 1: AS1 learns the route to 7 from its customer 3.
        paths = rc.best_paths_to(ASN(7))
        assert paths[ASN(1)].asns == (1, 3, 7)
        assert paths[ASN(1)].kind is RouteKind.CUSTOMER

    def test_peer_route_single_hop(self, clique_world):
        rc = RouteComputation(clique_world)
        paths = rc.best_paths_to(ASN(7))
        # Tier-1 2 learns 7 via its peer 1 (customer route of 1).
        assert paths[ASN(2)].asns == (2, 1, 3, 7)
        assert paths[ASN(2)].kind is RouteKind.PEER

    def test_provider_route_cascades_down(self, clique_world):
        rc = RouteComputation(clique_world)
        paths = rc.best_paths_to(ASN(7))
        # 5 reaches 7 through its provider 2, across the peering.
        assert paths[ASN(5)].asns == (5, 2, 1, 3, 7)
        assert paths[ASN(5)].kind is RouteKind.PROVIDER

    def test_valley_free_export_blocks_peer_to_peer_transit(self):
        """A route learned from one peer must not be exported to another."""
        g = build_graph(3)
        g.add_peering(ASN(1), ASN(2))
        g.add_peering(ASN(2), ASN(3))
        rc = RouteComputation(g)
        paths = rc.best_paths_to(ASN(1))
        assert ASN(2) in paths       # direct peer: reachable
        assert ASN(3) not in paths   # would need peer->peer export

    def test_customer_preferred_over_peer(self):
        """An AS with both a customer and a peer route picks the customer one."""
        g = build_graph(4)
        # dest 4 is customer of 3; 3 is customer of 1; 1 peers with... build:
        # 1 has customer 2; 2 has customer 4. 1 peers with 3; 3 has customer 4.
        g.add_customer_provider(ASN(2), ASN(1))
        g.add_customer_provider(ASN(4), ASN(2))
        g.add_peering(ASN(1), ASN(3))
        g.add_customer_provider(ASN(4), ASN(3))
        rc = RouteComputation(g)
        paths = rc.best_paths_to(ASN(4))
        # 1 could go peer (1,3,4) — same length as customer (1,2,4).
        # Customer route must win regardless.
        assert paths[ASN(1)].kind is RouteKind.CUSTOMER
        assert paths[ASN(1)].asns == (1, 2, 4)

    def test_shortest_wins_within_class(self):
        g = build_graph(5)
        # Two customer chains from dest 5 up to 1: via 2 (short) and 3->4 (long).
        g.add_customer_provider(ASN(5), ASN(2))
        g.add_customer_provider(ASN(2), ASN(1))
        g.add_customer_provider(ASN(5), ASN(3))
        g.add_customer_provider(ASN(3), ASN(4))
        g.add_customer_provider(ASN(4), ASN(1))
        rc = RouteComputation(g)
        assert rc.best_paths_to(ASN(5))[ASN(1)].asns == (1, 2, 5)

    def test_lowest_next_hop_tie_break(self):
        g = build_graph(4)
        # dest 4 reachable from 1 via customers 2 and 3, equal length.
        g.add_customer_provider(ASN(4), ASN(2))
        g.add_customer_provider(ASN(4), ASN(3))
        g.add_customer_provider(ASN(2), ASN(1))
        g.add_customer_provider(ASN(3), ASN(1))
        rc = RouteComputation(g)
        assert rc.best_paths_to(ASN(4))[ASN(1)].next_hop == 2

    def test_disconnected_absent(self):
        g = build_graph(3)
        g.add_customer_provider(ASN(2), ASN(1))
        rc = RouteComputation(g)
        assert ASN(3) not in rc.best_paths_to(ASN(1))

    def test_best_paths_are_cached(self, clique_world):
        rc = RouteComputation(clique_world)
        first = rc.best_paths_to(ASN(7))
        assert rc.best_paths_to(ASN(7)) is first



#: The mini-internet's provider lists, customer -> providers: tier-2s
#: 11 and 12, then the stubs.  Tier-1s 2, 3 and 4 peer in a clique.
MINI_INTERNET_PROVIDERS = {
    11: (2, 3),
    12: (2, 4),
    150: (2,), 151: (2,),
    152: (12,), 153: (12,),
    154: (11,),
    160: (3,), 161: (3,), 162: (3,),
    163: (4,), 164: (4,),
    170: (11, 12),
}


@pytest.fixture
def mini_internet():
    """The seed-emulator mini-internet's AS hierarchy (SNIPPETS.md), with
    its transit links as customer-provider edges and no route servers."""
    g = ASGraph()
    for asn in (2, 3, 4, *MINI_INTERNET_PROVIDERS):
        g.add_as(AutonomousSystem(asn=ASN(asn), name=f"as{asn}"))
    for a, b in ((2, 3), (2, 4), (3, 4)):
        g.add_peering(ASN(a), ASN(b))
    for customer, providers in MINI_INTERNET_PROVIDERS.items():
        for provider in providers:
            g.add_customer_provider(ASN(customer), ASN(provider))
    return g


class TestMiniInternetOracle:
    """Cones and best paths on the mini-internet, worked out by hand.

    Gao–Rexford as ``RouteComputation`` implements it: prefer customer
    over peer over provider routes, then the shorter path, then the lower
    next hop; export customer routes to everyone and peer or provider
    routes to customers only.
    """

    def test_customer_cones(self, mini_internet):
        # cone(2): customers 11, 12, 150, 151; through 11 also 154 and
        # 170, through 12 also 152, 153 (and 170 again).
        # cone(3): customers 11, 160-162; through 11, 154 and 170.
        # cone(4): customers 12, 163, 164; through 12, 152, 153 and 170.
        expected = {
            2: {2, 11, 12, 150, 151, 152, 153, 154, 170},
            3: {3, 11, 154, 160, 161, 162, 170},
            4: {4, 12, 152, 153, 163, 164, 170},
            11: {11, 154, 170},
            12: {12, 152, 153, 170},
        }
        for asn, cone in expected.items():
            assert customer_cone(mini_internet, ASN(asn)) == cone

    def test_paths_to_a_tier1_stub(self, mini_internet):
        paths = RouteComputation(mini_internet).best_paths_to(ASN(160))
        expected = {
            # 160 is 3's customer; 2 and 4 see it only from their peer 3.
            3: ((3, 160), RouteKind.CUSTOMER),
            2: ((2, 3, 160), RouteKind.PEER),
            4: ((4, 3, 160), RouteKind.PEER),
            # 11 hears it from provider 3 (2 hops) and provider 2 (3
            # hops): the shorter wins.
            11: ((11, 3, 160), RouteKind.PROVIDER),
            # 12 hears (12, 2, 3, 160) and (12, 4, 3, 160): equal length,
            # so the lower next hop, 2, wins.
            12: ((12, 2, 3, 160), RouteKind.PROVIDER),
            # 170 via 11 is 3 hops, via 12 is 4.
            170: ((170, 11, 3, 160), RouteKind.PROVIDER),
            152: ((152, 12, 2, 3, 160), RouteKind.PROVIDER),
        }
        for asn, (hops, kind) in expected.items():
            assert paths[ASN(asn)].asns == hops
            assert paths[ASN(asn)].kind is kind

    def test_paths_to_a_multihomed_stub(self, mini_internet):
        paths = RouteComputation(mini_internet).best_paths_to(ASN(170))
        # 2 has customer routes through both 11 and 12, equal length:
        # the lower next hop, 11, wins.
        assert paths[ASN(2)].asns == (2, 11, 170)
        assert paths[ASN(2)].kind is RouteKind.CUSTOMER
        # 4's customer 12 is a customer route that beats any peer route.
        assert paths[ASN(4)].asns == (4, 12, 170)
        assert paths[ASN(4)].kind is RouteKind.CUSTOMER
        assert paths[ASN(163)].asns == (163, 4, 12, 170)
        assert paths[ASN(163)].kind is RouteKind.PROVIDER

    def test_paths_to_another_tier1_stub(self, mini_internet):
        paths = RouteComputation(mini_internet).best_paths_to(ASN(163))
        # 3's customer 11 holds only a provider route to 163, which it
        # does not export up to 3: 3 takes its peer 4's route.
        assert paths[ASN(3)].asns == (3, 4, 163)
        assert paths[ASN(3)].kind is RouteKind.PEER
        # 11 hears (11, 2, 4, 163) and (11, 3, 4, 163): equal length,
        # the lower next hop, 2, wins.
        assert paths[ASN(11)].asns == (11, 2, 4, 163)
        assert paths[ASN(11)].kind is RouteKind.PROVIDER

def _random_hierarchy(seed: int) -> ASGraph:
    """Random 3-tier topology for property tests."""
    rng = np.random.default_rng(seed)
    g = build_graph(30)
    tier1 = [ASN(i) for i in range(1, 4)]
    tier2 = [ASN(i) for i in range(4, 12)]
    stubs = [ASN(i) for i in range(12, 31)]
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            g.add_peering(a, b)
    for t in tier2:
        for p in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
            g.add_customer_provider(t, tier1[int(p)])
    for s in stubs:
        for p in rng.choice(8, size=int(rng.integers(1, 3)), replace=False):
            g.add_customer_provider(s, tier2[int(p)])
    return g


def _is_valley_free(graph: ASGraph, path: ASPath) -> bool:
    """Check up* peer? down* structure along the traffic direction."""
    state = "up"
    for a, b in zip(path.asns, path.asns[1:]):
        rel = graph.relationship(a, b)
        if rel is Relationship.PROVIDER:  # going uphill
            if state != "up":
                return False
        elif rel is Relationship.PEER:
            if state != "up":
                return False
            state = "peered"
        elif rel is Relationship.CUSTOMER:  # downhill
            state = "down"
        else:
            return False
    return True


class TestValleyFreeProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_all_paths_valley_free(self, seed):
        g = _random_hierarchy(seed)
        rc = RouteComputation(g)
        rng = np.random.default_rng(seed)
        for dest in rng.choice(30, size=5, replace=False):
            dest_asn = ASN(int(dest) + 1)
            for path in rc.best_paths_to(dest_asn).values():
                assert _is_valley_free(g, path), str(path)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_tier1s_reach_everything(self, seed):
        g = _random_hierarchy(seed)
        rc = RouteComputation(g)
        paths = rc.best_paths_to(ASN(20))
        for t1 in (ASN(1), ASN(2), ASN(3)):
            assert t1 in paths
