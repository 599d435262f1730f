"""The offload-world builder and its scalar reference.

The reference (:mod:`tests.reference.offload_world`) is the seed
implementation's graph builder with its own copy of every stage draw,
so equivalence here is *bit-exact* — stronger than the detection world's
statistical suite: the graphs, memberships, traffic matrices, address
space, member arrays and (on the full paper world) the greedy IXP
expansion order must match member-for-member.  The reference inserts
every network and edge through the fully checked graph APIs, which is
what validates the bulk fast paths, and reads member cones off
breadth-first searches of its graph.  The identity assertions and the
fixed-seed world pairs live in :mod:`tests.engine_equivalence`, shared
with the detection-engine suite.
"""

import dataclasses

import numpy as np
import pytest

from repro.bgp.asys import AutonomousSystem
from repro.bgp.relationships import ASGraph
from repro.core.offload import (
    OffloadEstimator,
    PeerGroups,
    greedy_expansion,
    greedy_reachability,
)
from repro.errors import ConfigurationError, TopologyError
from repro.sim.netpool import NetworkPoolConfig
from repro.sim.offload_world import OffloadWorldConfig, build_offload_world
from repro.types import NetworkKind, PeeringPolicy
from tests.conftest import small_offload_config
from tests.engine_equivalence import (
    assert_offload_worlds_identical,
    offload_world_pair,
    tiny_offload_config,
)


class TestEngineSelection:
    def test_bad_engine_rejected(self):
        with pytest.raises(TypeError):
            OffloadWorldConfig(engine="quantum")

    def test_vectorized_is_default_and_deterministic(self):
        a = build_offload_world(tiny_offload_config(seed=5))
        b = build_offload_world(tiny_offload_config(seed=5))
        assert a.config.engine == "vectorized"
        assert a.contributing == b.contributing
        assert a.memberships == b.memberships
        assert np.array_equal(a.matrix.inbound_bps, b.matrix.inbound_bps)


class TestSharedStatics:
    """Per-call builds of one variant share its statics, read-only."""

    def test_two_seeds_share_one_statics_object(self):
        a = build_offload_world(tiny_offload_config(seed=5))
        b = build_offload_world(tiny_offload_config(seed=6))
        assert a._statics is b._statics

    def test_other_variant_gets_its_own(self):
        a = build_offload_world(tiny_offload_config(seed=5))
        b = build_offload_world(tiny_offload_config(seed=5, tier2_count=61))
        assert b._statics is not a._statics

    def test_statics_arrays_are_read_only(self):
        statics = build_offload_world(tiny_offload_config(seed=5))._statics
        arrays = [v for v in vars(statics).values()
                  if isinstance(v, np.ndarray)]
        assert len(arrays) == 9
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array


class TestProbabilityFields:
    """Probability and share fields are range-checked when the config is
    made, naming the field.  A space share of 1 used to divide by zero in
    the address-space stage, other out-of-range shares built worlds whose
    big eyeballs held none of the space, and out-of-range probabilities
    built silently."""

    @pytest.mark.parametrize("make,field,value", [
        (tiny_offload_config, "big_eyeball_space_share", 1.0),
        (tiny_offload_config, "big_eyeball_space_share", 1.5),
        (tiny_offload_config, "big_eyeball_space_share", -0.2),
        (tiny_offload_config, "big_eyeball_mega_homed", 1.5),
        (NetworkPoolConfig, "bicontinental_fraction", 1.5),
    ])
    def test_out_of_range_rejected(self, make, field, value):
        with pytest.raises(ConfigurationError, match=field):
            make(**{field: value})


class TestSizeFields:
    """Sizes the builder cannot build are rejected when the config is
    made, naming the field.  Two tier-1s used to pass and then fail
    inside the build (GÉANT peers with the third), as did no tier-2s and
    negative counts; ``days=0`` built a world whose every economics
    trial raised, and a non-positive address-space target built a world
    of a few hundred addresses."""

    @pytest.mark.parametrize("field,value", [
        ("tier1_count", 2),
        ("tier2_count", 0),
        ("nren_count", -1),
        ("mega_carrier_count", -1),
        ("big_eyeball_count", -1),
        ("head_pin_count", -1),
        ("days", 0),
        ("total_address_space", 0.0),
        ("total_address_space", -1.0),
    ])
    def test_unbuildable_size_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            tiny_offload_config(**{field: value})

    def test_smallest_sizes_build(self):
        assert_offload_worlds_identical(*offload_world_pair(
            tiny_offload_config(
                tier1_count=3, tier2_count=1, nren_count=0,
                mega_carrier_count=0, big_eyeball_count=0,
                head_pin_count=0, days=1,
            )
        ))

    # The numbered ASN blocks start at 101 (tier-1s), 766 (RedIRIS), 901
    # (NRENs), 2001 (giants), 3001 (tier-2s) and 10001 (stubs).  One more
    # network than a block holds used to build silently and then fail
    # the graph assembly with a duplicate ASN.
    @pytest.mark.parametrize("sizes", [
        {"tier1_count": 666},
        {"nren_count": 1101},
        {"tier2_count": 7001, "contributing_count": 7600},
    ])
    def test_overlapping_asn_block_rejected(self, sizes):
        field = next(iter(sizes))
        with pytest.raises(ConfigurationError, match=field):
            dataclasses.replace(small_offload_config(), **sizes)

    @pytest.mark.parametrize("sizes", [
        {"tier1_count": 665},
        {"nren_count": 1100},
        {"tier2_count": 7000, "contributing_count": 7600},
    ])
    def test_fullest_asn_blocks_build(self, sizes):
        config = dataclasses.replace(small_offload_config(), **sizes)
        world = build_offload_world(config)
        # Every AS once: the contributors, the tier-1s and NRENs, plus
        # RedIRIS, GÉANT and the six CDNs RedIRIS already peers with.
        assert len(set(world.contributing)) == config.contributing_count
        assert len(world.graph) == (
            config.contributing_count + config.tier1_count
            + config.nren_count + 8
        )


class TestEngineIdentity:
    """Builder and reference draw identically: worlds are bit-identical."""

    @pytest.fixture(scope="class")
    def worlds(self):
        return offload_world_pair(tiny_offload_config(seed=9))

    def test_worlds_bit_identical(self, worlds):
        assert_offload_worlds_identical(*worlds)

    def test_greedy_expansion_order_identical(self, worlds):
        vec, sca = worlds
        orders = []
        for world in worlds:
            estimator = OffloadEstimator(world, PeerGroups.build(world))
            orders.append(
                tuple(s.ixp for s in greedy_expansion(estimator, 4, max_ixps=6))
            )
        assert orders[0] == orders[1]


@pytest.mark.slow
class TestPaperScaleEngineIdentity:
    """Full 29,570-network worlds: the acceptance-grade identity check."""

    @pytest.fixture(scope="class")
    def estimators(self):
        return [
            OffloadEstimator(world, PeerGroups.build(world))
            for world in offload_world_pair(OffloadWorldConfig(seed=42))
        ]

    def test_identical_greedy_expansion_order(self, estimators):
        vec, sca = estimators
        vec_steps = greedy_expansion(vec, 4, max_ixps=8)
        sca_steps = greedy_expansion(sca, 4, max_ixps=8)
        assert [s.ixp for s in vec_steps] == [s.ixp for s in sca_steps]
        for a, b in zip(vec_steps, sca_steps):
            assert a.gained_total_bps == pytest.approx(b.gained_total_bps)
            assert a.remaining_total_bps == pytest.approx(b.remaining_total_bps)

    def test_identical_candidates_and_fractions(self, estimators):
        vec, sca = estimators
        assert vec.groups.candidates == sca.groups.candidates
        assert vec.groups.top_selective == sca.groups.top_selective
        ixps = vec.reachable_ixps()
        assert vec.offload_fractions(ixps, 4) == pytest.approx(
            sca.offload_fractions(ixps, 4)
        )

    def test_identical_reachability_order(self, estimators):
        vec, sca = estimators
        orders = []
        for est in (vec, sca):
            steps = greedy_reachability(est.world, est.groups, 4, max_ixps=4)
            orders.append([s.ixp for s in steps])
        assert orders[0] == orders[1]


class TestConeIndexTables:
    """The member cone CSRs, built from the drawn edge arrays, agree with
    breadth-first customer cones over the world's assembled graph."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_offload_world(small_offload_config())

    def test_contrib_indices_match_bfs_cone(self, world):
        members = world.member_arrays()
        for k in range(members.asns.size):
            asn = int(members.asns[k])
            expected = sorted(
                idx
                for member in world.cone(asn)
                if (idx := world.contributing_index(member)) is not None
            )
            cone = members.cone_indices[
                members.cone_indptr[k]:members.cone_indptr[k + 1]
            ]
            assert cone.tolist() == expected, asn

    def test_all_indices_match_bfs_cone(self, world):
        all_index = {a: v for v, a in enumerate(world.graph.asns())}
        indptr, indices = world.member_all_cones()
        members = world.member_arrays()
        for k in range(members.asns.size):
            asn = int(members.asns[k])
            expected = sorted(all_index[m] for m in world.cone(asn))
            assert indices[indptr[k]:indptr[k + 1]].tolist() == expected, asn

    def test_unknown_member_is_empty(self, world):
        lone = dataclasses.replace(world, memberships={"AMS-IX": frozenset()})
        members = lone.member_arrays()
        assert members.ixps == ("AMS-IX",)
        assert members.asns.size == members.cone_indices.size == 0
        indptr, indices = lone.member_all_cones()
        assert indptr.tolist() == [0] and indices.size == 0

    def test_mask_for_members_uses_tables(self, world):
        giants = frozenset(world.giants[:3])
        estimator = OffloadEstimator(
            world, PeerGroups(world=world, candidates=giants)
        )
        mask = estimator.mask_for(estimator.reachable_ixps(), 4)
        seated = giants & frozenset().union(*world.memberships.values())
        assert seated
        for giant in seated:
            assert mask[world.contributing_index(giant)]
        assert mask.sum() == len(seated)


class TestBulkGraphAPIs:
    """Contracts of the fast insertion paths the builder uses."""

    def _graph(self) -> ASGraph:
        graph = ASGraph()
        graph.add_ases_bulk(
            AutonomousSystem(asn=i, name=f"as{i}", kind=NetworkKind.TRANSIT,
                             policy=PeeringPolicy.OPEN)
            for i in (1, 2, 3)
        )
        return graph

    def test_bulk_duplicate_rejected(self):
        graph = self._graph()
        with pytest.raises(TopologyError):
            graph.add_ases_bulk([
                AutonomousSystem(asn=3, name="dup", kind=NetworkKind.TRANSIT,
                                 policy=PeeringPolicy.OPEN)
            ])

    def test_bulk_edges_match_checked_path(self):
        bulk = self._graph()
        bulk.add_customer_provider_arrays(
            np.array([1, 1, 2]), np.array([2, 3, 3])
        )
        checked = self._graph()
        for customer, provider in ((1, 2), (1, 3), (2, 3)):
            checked.add_customer_provider(customer, provider)
        for asn in (1, 2, 3):
            assert bulk.providers_of(asn) == checked.providers_of(asn)
            assert bulk.customers_of(asn) == checked.customers_of(asn)

    def test_bulk_self_edge_rejected(self):
        graph = self._graph()
        with pytest.raises(TopologyError):
            graph.add_customer_provider_arrays(
                np.array([1, 2]), np.array([2, 2])
            )

    def test_bulk_empty_arrays_are_a_noop(self):
        graph = self._graph()
        graph.add_customer_provider_arrays(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert graph.degree(1) == 0

    def test_bulk_rejects_customer_with_existing_providers(self):
        graph = self._graph()
        graph.add_customer_provider(1, 2)
        with pytest.raises(TopologyError):
            graph.add_customer_provider_arrays(np.array([1]), np.array([3]))
        # Non-contiguous rows for one customer trip the same guard.
        graph2 = self._graph()
        with pytest.raises(TopologyError):
            graph2.add_customer_provider_arrays(
                np.array([1, 2, 1]), np.array([2, 3, 3])
            )

    def test_lazy_adjacency_reads_empty(self):
        graph = self._graph()
        assert graph.providers_of(1) == frozenset()
        assert graph.degree(1) == 0
        assert graph.provider_free() == [1, 2, 3]


class TestLowestKeys:
    """The big-eyeball slot pick equals a stable argsort's first k."""

    def test_matches_stable_argsort_with_ties(self):
        from repro.sim.offload_world import _lowest

        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 1))
            keys = rng.integers(0, 5, n).astype(float)  # many ties
            picked = _lowest(keys, k)
            assert len(picked) == k
            assert set(picked.tolist()) == set(
                np.argsort(keys, kind="stable")[:k].tolist()
            )
