"""The global network pool."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geo.cities import default_city_db
from repro.sim.netpool import (
    _KIND_WEIGHTS,
    _POLICY_WEIGHTS,
    SCOPE_CONTINENTS,
    NetworkPoolConfig,
    generate_network_pool,
)
from repro.types import ASN
from tests.reference.netpool import object_pool
from tests.test_reference_digests import object_pool_digest

#: ``object_pool_digest`` of the vectorized object pool at (2000, seed 7),
#: taken before that generator was folded into the columnar one.
VECTORIZED_OBJECT_POOL_DIGEST = (
    "8f3213eeb1097a2faaf950deb40be1a0"
    "c0f860418dde2b7d7e413380a71dd698"
)


@pytest.fixture(scope="module")
def pool():
    db = default_city_db()
    return generate_network_pool(db, NetworkPoolConfig(size=800, seed=9))


@pytest.fixture(scope="module")
def networks(pool):
    """Every entry's view, in pool order."""
    return [pool.network(i) for i in range(len(pool))]


class TestGeneration:
    def test_size_and_unique_asns(self, pool, networks):
        assert len(pool) == 800
        asns = {n.asn for n in networks}
        assert len(asns) == 800

    def test_deterministic(self):
        db = default_city_db()
        a = generate_network_pool(db, NetworkPoolConfig(size=100, seed=4))
        b = generate_network_pool(db, NetworkPoolConfig(size=100, seed=4))
        for column in ("asn", "continent_idx", "city_idx", "propensity"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_seed_changes_pool(self):
        db = default_city_db()
        a = generate_network_pool(db, NetworkPoolConfig(size=100, seed=4))
        b = generate_network_pool(db, NetworkPoolConfig(size=100, seed=5))
        assert [a.network(i).home_city.name for i in range(100)] != [
            b.network(i).home_city.name for i in range(100)
        ]

    def test_scope_includes_home_continent(self, networks):
        for n in networks:
            assert n.home_city.continent in n.scope

    def test_some_global_networks(self, pool, networks):
        globals_ = [n for n in networks if len(n.scope) == 6]
        assert globals_
        assert len(globals_) < len(pool) * 0.1

    def test_europe_dominates(self, pool, networks):
        eu = sum(1 for n in networks if n.home_city.continent == "EU")
        assert eu > 0.3 * len(pool)

    def test_address_space_positive(self, networks):
        assert all(n.asys.address_space >= 256 for n in networks)


class TestSampling:
    def test_eligibility(self, pool):
        for i in pool.eligible_for("SA"):
            assert "SA" in pool.scope_of(i)

    def test_sample_members_distinct_and_eligible(self, pool):
        rng = np.random.default_rng(0)
        members = pool.sample_member_indices(rng, "EU", 50)
        assert len(set(members.tolist())) == 50
        assert all("EU" in pool.scope_of(i) for i in members)

    def test_sample_respects_exclusion(self, pool):
        rng = np.random.default_rng(0)
        excluded = {ASN(int(pool.asn[0]))}
        members = pool.sample_member_indices(
            rng, "EU", 20, exclude_asns=excluded
        )
        assert excluded.isdisjoint(pool.asn[members].tolist())

    def test_oversample_raises(self, pool):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            pool.sample_member_indices(rng, "OC", 10_000)

    def test_high_propensity_sampled_more(self, pool):
        """The recurrence of high-propensity networks across draws is what
        produces Figure 4a's IXP-count tail."""
        rng = np.random.default_rng(1)
        eligible = pool.eligible_for("EU")
        top = int(eligible[np.argmax(pool.propensity[eligible])])
        hits = 0
        for _ in range(20):
            members = pool.sample_member_indices(rng, "EU", 60)
            hits += top in members.tolist()
        assert hits >= 15


class TestColumnarBackend:
    """The struct-of-arrays pool decoded by hand and against a digest of
    the vectorized object pool, and its index sampler against the object
    sampler over the same entries."""

    @pytest.fixture(scope="class")
    def col(self):
        db = default_city_db()
        return generate_network_pool(db, NetworkPoolConfig(size=2000, seed=7))

    def test_materialized_views_match_object_pool(self, col):
        """Every view ``network(i)`` builds is the network the vectorized
        object pool held at that index, bit for bit."""
        views = object_pool(col)
        assert object_pool_digest(views) == VECTORIZED_OBJECT_POOL_DIGEST

    def test_eligibility_indices_match(self, col):
        masks = col.scope_mask.tolist()
        for bit, continent in enumerate(SCOPE_CONTINENTS):
            expected = [i for i, mask in enumerate(masks) if mask >> bit & 1]
            assert col.eligible_for(continent).tolist() == expected, continent

    def test_sampling_matches_object_pool_asn_for_asn(self, col):
        objects = object_pool(col)
        exclude = {objects.networks[0].asn, objects.networks[7].asn}
        drawn = objects.sample_members(
            np.random.default_rng(3), "EU", 40, exclude=exclude
        )
        indices = col.sample_member_indices(
            np.random.default_rng(3), "EU", 40,
            exclude_asns=np.fromiter(exclude, dtype=np.int64),
        )
        assert [n.asn for n in drawn] == col.asn[indices].tolist()

    def test_lazy_network_view_round_trips(self, col):
        kinds, policies = list(_KIND_WEIGHTS), list(_POLICY_WEIGHTS)
        for i in (0, 1234, len(col) - 1):
            network = col.network(i)
            continent = SCOPE_CONTINENTS[col.continent_idx[i]]
            cities = col.cities_by_continent[continent]
            scope = frozenset(
                code for bit, code in enumerate(SCOPE_CONTINENTS)
                if col.scope_mask[i] >> bit & 1
            )
            assert network.asn == col.asn[i]
            assert network.home_city == cities[col.city_idx[i]]
            assert network.asys.kind == kinds[col.kind_idx[i]]
            assert network.asys.policy == policies[col.policy_idx[i]]
            assert network.asys.address_space == col.address_space[i]
            assert network.propensity == col.propensity[i]
            assert network.scope == col.scope_of(i) == scope
            assert continent in scope
