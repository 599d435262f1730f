"""Mega-scale tiered worlds: structure, determinism, and columnar purity.

The mega tier's contract is threefold: the CAIDA-style hierarchy is
sound (tiers sized as configured, every provider edge climbing), builds
are a pure function of the seed, and — the tentpole invariant — nothing
on the build path materializes per-network Python objects.  The last is
pinned with a gc object-count probe over a ~20k-network build.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.bgp.asys import AutonomousSystem
from repro.errors import ConfigurationError, TopologyError
from repro.ixp.euroix import euroix_catalog, scaled_member_count
from repro.rand import child_rng
from repro.sim.megatopo import (
    _REGION_CONTINENT,
    TIER_CLIQUE,
    TIER_STUB,
    TIER_T1,
    TIER_T2,
    MegaWorld,
    MegaWorldConfig,
    _descending_order,
    build_mega_world,
)
from repro.sim.netpool import (
    SCOPE_CONTINENTS,
    ColumnarNetworkPool,
    PooledNetwork,
)
from tests.reference.relationships import mega_asgraph

#: Small enough for object-world cross-checks, big enough that every
#: tier is populated (t1_count=2, t2_count=36, 550 stubs).
SMALL = MegaWorldConfig(size=600, seed=5)


@pytest.fixture(scope="module")
def small_world() -> MegaWorld:
    return build_mega_world(SMALL)


def world_copy(world: MegaWorld) -> MegaWorld:
    """An independent world (copied arrays) safe to tamper with."""
    columns = {k: v.copy() for k, v in world.export_columns().items()}
    return MegaWorld.from_columns(world.config, columns)


class TestTierStructure:
    def test_tier_counts_match_config(self, small_world):
        tier = small_world.tier
        assert (tier == TIER_CLIQUE).sum() == SMALL.clique_size
        assert (tier == TIER_T1).sum() == SMALL.t1_count
        assert (tier == TIER_T2).sum() == SMALL.t2_count
        assert (tier == TIER_STUB).sum() == (
            SMALL.size - SMALL.clique_size - SMALL.t1_count - SMALL.t2_count
        )

    def test_tiers_follow_propensity_order(self, small_world):
        # The clique holds the highest-propensity networks, then T1, etc.
        prop = small_world.pool.propensity
        tier = small_world.tier
        assert prop[tier == TIER_CLIQUE].min() >= prop[tier == TIER_T1].max()
        assert prop[tier == TIER_T1].min() >= prop[tier == TIER_T2].max()
        assert prop[tier == TIER_T2].min() >= prop[tier == TIER_STUB].max()

    def test_propensity_order_is_the_stable_descending_sort(
        self, small_world
    ):
        prop = small_world.pool.propensity
        assert len(np.unique(prop)) == len(prop)  # the default-sort path
        expected = np.argsort(-prop, kind="stable")
        assert np.array_equal(small_world.propensity_order, expected)
        assert np.array_equal(_descending_order(prop), expected)

    def test_tied_propensities_take_the_stable_sort(self, small_world):
        # A pool whose propensities come in a few tied levels: the
        # default sort alone would order each tie arbitrarily.
        levels = np.repeat(small_world.pool.propensity[:6], 800)
        tied = np.random.default_rng(3).permutation(levels)
        expected = np.argsort(-tied, kind="stable")
        assert not np.array_equal(np.argsort(-tied), expected)
        assert np.array_equal(_descending_order(tied), expected)

    def test_provider_fan_in_per_tier(self, small_world):
        fan_in = np.diff(small_world.provider_indptr)
        tier = small_world.tier
        assert (fan_in[tier == TIER_CLIQUE] == 0).all()
        assert (fan_in[tier == TIER_T1] == SMALL.providers_per_t1).all()
        assert (fan_in[tier == TIER_T2] == SMALL.providers_per_t2).all()
        assert (fan_in[tier == TIER_STUB] == SMALL.providers_per_stub).all()

    def test_providers_come_from_the_tier_above(self, small_world):
        tier = small_world.tier
        for level, above in (
            (TIER_T1, TIER_CLIQUE),
            (TIER_T2, TIER_T1),
            (TIER_STUB, TIER_T2),
        ):
            for i in np.flatnonzero(tier == level):
                providers = small_world.providers_of_index(int(i))
                assert (tier[providers] == above).all()
                # Distinct picks per customer (whole-row redraw contract).
                assert len(set(providers.tolist())) == len(providers)

    def test_hierarchy_soundness_check_catches_tampering(self, small_world):
        tampered = world_copy(small_world)
        tampered.assert_hierarchy_sound()  # the copy starts sound
        stub = int(np.flatnonzero(tampered.tier == TIER_STUB)[0])
        slot = int(tampered.provider_indptr[stub])
        tampered.provider_indices[slot] = stub  # a self-provider stub
        with pytest.raises(TopologyError):
            tampered.assert_hierarchy_sound()


class TestDeterminism:
    def test_same_seed_same_world_bit_for_bit(self):
        a = build_mega_world(SMALL).export_columns()
        b = build_mega_world(SMALL).export_columns()
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_different_seed_different_world(self, small_world):
        other = build_mega_world(MegaWorldConfig(size=600, seed=6))
        assert not np.array_equal(
            other.pool.propensity, small_world.pool.propensity
        )
        assert not np.array_equal(
            other.member_indices, small_world.member_indices
        )

    def test_from_columns_round_trip(self, small_world):
        rebuilt = world_copy(small_world)
        assert len(rebuilt) == len(small_world)
        assert rebuilt.ixp_count == small_world.ixp_count
        assert isinstance(rebuilt.pool, ColumnarNetworkPool)
        assert np.array_equal(
            rebuilt.membership_masks(), small_world.membership_masks()
        )
        assert np.array_equal(
            rebuilt.coverage_masks(), small_world.coverage_masks()
        )
        # The traffic ranks follow the stored propensity order, so it
        # must cross the transport unchanged.
        assert rebuilt.propensity_order.dtype == np.int32
        assert np.array_equal(
            rebuilt.propensity_order,
            np.argsort(-small_world.pool.propensity, kind="stable"),
        )

    def test_attached_pool_reads_the_built_cities(self, small_world):
        """An attach rebuilds no constants: its pool reads every network's
        home city as the built pool does, the catalog is the one tuple
        every build shares, and each attached world still owns its
        ``cities_by_continent`` dict."""
        first, second = world_copy(small_world), world_copy(small_world)
        for continent in SCOPE_CONTINENTS:
            assert list(first.pool.cities_by_continent[continent]) == list(
                small_world.pool.cities_by_continent[continent]
            )
        assert [
            first.pool.network(i).home_city for i in range(len(first))
        ] == [
            small_world.pool.network(i).home_city
            for i in range(len(small_world))
        ]
        assert first.pool.cities_by_continent is not (
            second.pool.cities_by_continent
        )
        assert first.catalog is second.catalog is small_world.catalog
        assert small_world.catalog is euroix_catalog()


class TestMemberships:
    def test_counts_match_scaled_catalog(self, small_world):
        for j, spec in enumerate(small_world.catalog):
            want = scaled_member_count(
                spec, SMALL.size, floor=SMALL.member_floor
            )
            assert small_world.member_counts[j] == want
            assert len(small_world.members_of(j)) == want

    def test_members_are_scope_eligible_and_distinct(self, small_world):
        scope_mask = small_world.pool.scope_mask
        for j, spec in enumerate(small_world.catalog):
            continent = _REGION_CONTINENT[spec.region]
            bit = np.uint8(1 << SCOPE_CONTINENTS.index(continent))
            members = small_world.members_of(j)
            assert (scope_mask[members] & bit).all(), spec.acronym
            assert len(set(members.tolist())) == len(members)

    def test_members_are_the_per_ixp_pool_draws(self, small_world):
        # Each exchange's list is the pool's own draw on its stream,
        # though every continent's sampler is shared by its exchanges.
        pool = small_world.pool
        for j, spec in enumerate(small_world.catalog):
            rng = child_rng(SMALL.seed, "megatopo", "membership", spec.acronym)
            expected = pool.sample_member_indices(
                rng, _REGION_CONTINENT[spec.region],
                int(small_world.member_counts[j]),
            )
            assert np.array_equal(small_world.members_of(j), expected), (
                spec.acronym
            )

    def test_coverage_extends_membership_down_the_cone(self, small_world):
        membership = small_world.membership_masks()
        coverage = small_world.coverage_masks()
        # Coverage is a superset of membership bit-for-bit...
        assert ((coverage & membership) == membership).all()
        # ...and identical on the clique, which has no providers.
        clique = small_world.tier == TIER_CLIQUE
        assert np.array_equal(coverage[clique], membership[clique])
        assert (small_world.reach_counts() >= small_world.member_counts).all()


class TestObjectGraphBridge:
    def test_to_asgraph_matches_the_arrays(self, small_world):
        graph = mega_asgraph(small_world)
        assert len(graph) == len(small_world)
        graph.assert_hierarchy_acyclic()
        asn = small_world.pool.asn
        clique = np.flatnonzero(small_world.tier == TIER_CLIQUE)
        # Only the clique is provider-free, and it is fully meshed.
        assert sorted(graph.provider_free()) == sorted(
            int(a) for a in asn[clique]
        )
        for i in clique:
            peers = graph.peers_of(int(asn[i]))
            assert peers == frozenset(
                int(a) for a in asn[clique] if a != asn[i]
            )
        # Spot-check provider edges against the CSR table.
        for i in (0, len(small_world) // 2, len(small_world) - 1):
            want = frozenset(
                int(a) for a in asn[small_world.providers_of_index(i)]
            )
            assert graph.providers_of(int(asn[i])) == want


class TestColumnarPurity:
    def test_build_materializes_no_per_network_objects(self):
        # The tentpole invariant: a ~20k-network build must not create a
        # single PooledNetwork or AutonomousSystem — the world is arrays
        # end to end.  (The reference's mega_asgraph bridge is the
        # deliberate, test-only exception.)
        gc.collect()
        before = sum(
            isinstance(o, (PooledNetwork, AutonomousSystem))
            for o in gc.get_objects()
        )
        world = build_mega_world(MegaWorldConfig(size=20_000, seed=1))
        gc.collect()
        after = sum(
            isinstance(o, (PooledNetwork, AutonomousSystem))
            for o in gc.get_objects()
        )
        assert after == before
        assert isinstance(world.pool, ColumnarNetworkPool)
        assert len(world) == 20_000

    def test_lazy_view_is_on_demand_only(self, small_world):
        view = small_world.pool.network(3)
        assert isinstance(view, PooledNetwork)
        assert view.asn == int(small_world.pool.asn[3])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"size": 0},
            {"clique_size": 1},
            {"t1_fraction": 0.0},
            {"t2_fraction": 1.0},
            # Tiers swallow the whole pool: no stubs left.
            {"size": 100, "t1_fraction": 0.05, "t2_fraction": 0.9},
            {"providers_per_t1": 13},          # > clique_size
            {"size": 600, "providers_per_t2": 3},  # > t1_count == 2
            {"providers_per_stub": 0},
        ],
    )
    def test_bad_configs_raise(self, overrides):
        values = {"size": 600, "seed": 5}
        values.update(overrides)
        with pytest.raises(ConfigurationError):
            MegaWorldConfig(**values)

    def test_mega_study_is_registered_in_the_cli(self):
        from repro.experiments.requests import request_kinds

        assert "mega" in request_kinds()
