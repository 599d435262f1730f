"""The offload-world builder and its scalar reference.

The builder and the reference (:mod:`tests.reference.offload_world`)
consume identical stage-stream draws (see the
:mod:`repro.sim.offload_world` docstring), so equivalence here is
*bit-exact* — stronger than the detection world's statistical suite: the
graphs, memberships, traffic matrices, address space and (on the full
paper world) the greedy IXP expansion order must match member-for-member.
The reference inserts every network and edge through the fully checked
graph APIs, which is what validates the bulk fast paths.  The identity
assertions and the fixed-seed world pairs live in
:mod:`tests.engine_equivalence`, shared with the detection-engine suite.
"""

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
    """The bottom-up closure tables agree with the BFS customer cones."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_offload_world(small_offload_config())

    def test_contrib_indices_match_bfs_cone(self, world):
        samples = [*world.tier1s[:2], *world.giants[:2],
                   *world.contributing[30:90:20]]
        for asn in samples:
            expected = sorted(
                idx
                for member in world.cone(asn)
                if (idx := world.contributing_index(member)) is not None
            )
            assert sorted(world.cone_contrib_indices(asn).tolist()) == expected

    def test_all_indices_match_bfs_cone(self, world):
        all_index = {a: v for v, a in enumerate(world.all_asns())}
        for asn in (world.tier1s[0], world.geant, world.contributing[100]):
            expected = sorted(all_index[m] for m in world.cone(asn))
            assert sorted(world.cone_all_indices(asn).tolist()) == expected

    def test_unknown_member_is_empty(self, world):
        from repro.types import ASN

        missing = ASN(999_999)
        assert world.cone_contrib_indices(missing).size == 0
        assert world.cone_all_indices(missing).size == 0

    def test_mask_for_members_uses_tables(self, world):
        members = frozenset(world.giants[:3])
        mask = world.contributing_mask_for_members(members)
        for giant in members:
            assert mask[world.contributing_index(giant)]
        assert mask.sum() >= len(members)


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
