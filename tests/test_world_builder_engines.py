"""The detection-world builder, its scalar reference, and the world-
builder bug batch (zero band weights, silent member drops, zero
propensities).

Equivalence with the reference (:mod:`tests.reference.detection_world`)
is statistical: the two builders consume the same per-(seed, "ixp",
acronym) streams in different orders, so worlds agree in distribution —
remote fractions, behaviour-class counts, band histograms and (on the
full world, under a shared campaign) per-filter discard counts — not
member-for-member.  The comparators and the fixed-seed world pairs live
in :mod:`tests.engine_equivalence`, shared with the offload-engine suite.
"""

import numpy as np
import pytest

from repro.core.detection import CampaignConfig, FilterPipeline, ProbeCampaign
from repro.errors import ConfigurationError
from repro.geo.cities import default_city_db
from repro.geo.distances import CityDistanceMatrix
from repro.ixp.catalog import IXPSpec, paper_catalog
from repro.sim.detection_world import (
    DetectionWorldConfig,
    build_detection_world,
    NORMAL,
    _WorldBuilder,
)
from repro.sim.netpool import (
    ColumnarNetworkPool,
    NetworkPoolConfig,
    generate_network_pool,
)
from repro.sim.offload_world import OffloadWorldConfig
from tests.engine_equivalence import (
    assert_category_counts_close,
    assert_counts_close,
    assert_ks_close,
    assert_moments_close,
    assert_quantiles_close,
    detection_world_pair,
    network_pool_pair,
)
from tests.reference.campaign import ReferenceCampaign
from tests.reference.filters import ReferenceFilterPipeline
from tests.reference.detection_world import (
    ScalarWorldBuilder,
    build_scalar_detection_world,
)
from tests.reference.netpool import (
    NetworkPool,
    generate_scalar_pool,
    object_pool,
)
from tests.reference.views import ObjectWorld


def _spec(**overrides) -> IXPSpec:
    """A small custom IXP spec with sensible defaults."""
    values = dict(
        acronym="T-IX", full_name="Test IXP", city_name="Amsterdam",
        country="NL", peak_traffic_tbps=0.1, member_count=60,
        analyzed_interfaces=60, remote_fraction=0.15,
        band_weights=(0.4, 0.4, 0.2), has_pch_lg=True, has_ripe_lg=False,
    )
    values.update(overrides)
    return IXPSpec(**values)


class TestCityDistanceMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return CityDistanceMatrix.build(default_city_db())

    def test_matches_scalar_haversine(self, matrix):
        db = default_city_db()
        ams, tokyo = db.get("Amsterdam"), db.get("Tokyo")
        assert matrix.distance_km("Amsterdam", "Tokyo") == pytest.approx(
            ams.distance_km(tokyo), abs=1e-6
        )
        assert matrix.distance_km("Amsterdam", "Amsterdam") == 0.0

    def test_within_band(self, matrix):
        db = default_city_db()
        ams = db.get("Amsterdam")
        cities = matrix.within("Amsterdam", 150.0, 560.0)
        assert cities
        for city in cities:
            assert 150.0 <= ams.distance_km(city) <= 560.0

    def test_unknown_city_raises(self, matrix):
        with pytest.raises(ConfigurationError):
            matrix.row("Atlantis")

    def test_one_shared_read_only_matrix_per_city_table(self):
        from repro.geo.cities import City
        from repro.geo.coords import GeoPoint

        first = build_detection_world(DetectionWorldConfig(
            seed=3, specs=(_spec(),)
        ))
        second = build_detection_world(DetectionWorldConfig(
            seed=4, specs=(_spec(),)
        ))
        assert first.city_db is not second.city_db
        assert first.matrix is second.matrix
        assert first.matrix is CityDistanceMatrix.for_cities(default_city_db())
        with pytest.raises(ValueError):
            first.matrix.km[0, 1] = 0.0
        grown = default_city_db()
        grown.add(City("Atlantis", "Nowhere", "EU", GeoPoint(40.0, -30.0)))
        own = CityDistanceMatrix.for_cities(grown)
        assert own is not first.matrix
        assert len(own) == len(first.matrix) + 1
        assert own.distance_km("Amsterdam", "Tokyo") == (
            first.matrix.distance_km("Amsterdam", "Tokyo")
        )


class TestEngineSelection:
    def test_bad_engine_rejected(self):
        """No world or pool config takes an engine any more.  The world
        configs keep a fixed ``engine`` field last, so their reprs — and
        the study fingerprints hashed from them — are unchanged."""
        for make in (DetectionWorldConfig, OffloadWorldConfig,
                     NetworkPoolConfig):
            with pytest.raises(TypeError):
                make(engine="quantum")
        for config in (DetectionWorldConfig(), OffloadWorldConfig()):
            assert config.engine == "vectorized"
            assert repr(config).endswith(", engine='vectorized')")
        assert "engine" not in repr(NetworkPoolConfig())

    @pytest.mark.parametrize(
        ("engine", "pool_engine"),
        [
            ("vectorized", "vectorized"),
            ("vectorized", "columnar"),
            ("scalar", "scalar"),
            ("scalar", "vectorized"),
        ],
    )
    def test_pool_engine_pairing(self, engine, pool_engine):
        """Each builder draws on the pool it is handed, in its own form.
        The product builder takes columns, from its front door
        ("vectorized") or handed to it ("columnar"); the reference builder
        takes object pools, the reference loop's ("scalar") or the
        product's draws wrapped by ``object_pool`` ("vectorized").  The
        pairs once rejected up front cannot be named any more: no config
        takes an engine (``test_bad_engine_rejected``)."""
        db = default_city_db()
        pool_config = NetworkPoolConfig(size=600, seed=3)
        config = DetectionWorldConfig(
            seed=3, specs=(_spec(),), pool=pool_config
        )
        if pool_engine == "scalar":
            pool = generate_scalar_pool(db, pool_config)
        else:
            pool = generate_network_pool(db, pool_config)
        if engine == "scalar":
            if pool_engine == "vectorized":
                pool = object_pool(pool)
            world = ScalarWorldBuilder(config, db, pool).build()
        elif pool_engine == "vectorized":
            world = build_detection_world(config)
        else:
            world = _WorldBuilder(config, db, pool).build()
        assert world.candidate_count() > 0
        if engine == "vectorized":
            assert isinstance(world.pool, ColumnarNetworkPool)
            assert np.array_equal(world.pool.asn, pool.asn)
        else:
            assert isinstance(world.pool, NetworkPool)
            assert world.pool is pool

    def test_vectorized_is_default_and_deterministic(self):
        specs = (_spec(),)
        a, b = (
            ObjectWorld(build_detection_world(
                DetectionWorldConfig(seed=3, specs=specs)))
            for _ in range(2)
        )
        assert a.config.engine == "vectorized"
        assert isinstance(a.pool, ColumnarNetworkPool)
        assert set(a.truth) == set(b.truth)
        for key in a.truth:
            assert a.truth[key].base_rtt_ms == b.truth[key].base_rtt_ms

    def test_scalar_engine_uses_scalar_pool(self):
        world = build_scalar_detection_world(
            DetectionWorldConfig(seed=3, specs=(_spec(),))
        )
        reference = generate_scalar_pool(
            default_city_db(), NetworkPoolConfig(seed=3)
        )
        assert [n.asn for n in world.pool.networks[:50]] == [
            n.asn for n in reference.networks[:50]
        ]
        assert [n.home_city.name for n in world.pool.networks[:50]] == [
            n.home_city.name for n in reference.networks[:50]
        ]


class TestSeatedViews:
    """The builder keeps its pool as columns and seats no network view; the
    world's reference object view materializes one only for an index the
    world seats, once per world."""

    @pytest.fixture(scope="class")
    def seated(self, mini_specs):
        calls: list[int] = []
        network = ColumnarNetworkPool.network

        def counting(pool, i):
            calls.append(int(i))
            return network(pool, i)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ColumnarNetworkPool, "network", counting)
            world = build_detection_world(
                DetectionWorldConfig(seed=11, specs=mini_specs)
            )
            assert calls == []  # the build path assembles no objects
            views = ObjectWorld(world)
        return views, calls

    def test_one_view_per_seated_network(self, seated):
        world, calls = seated
        assert len(calls) == len(set(calls))
        pool_asns = {int(world.pool.asn[i]) for i in calls}
        member_asns = {
            int(m.network.asn)
            for ixp in world.ixps.values() for m in ixp.members
        }
        # Every seated pool network, and nothing else (anchors are not
        # pool entries).
        assert pool_asns == member_asns & set(world.pool.asn.tolist())
        assert len(calls) < len(world.pool) // 10

    def test_as_at_two_ixps_is_one_object(self, seated):
        world, _ = seated
        by_asn: dict[int, list] = {}
        for ixp in world.ixps.values():
            for member in ixp.members:
                by_asn.setdefault(int(member.network.asn), []).append(
                    member.network
                )
        shared = {asn: nets for asn, nets in by_asn.items() if len(nets) > 1}
        assert shared
        for nets in shared.values():
            assert all(n is nets[0] for n in nets)


class TestPoolEngineEquivalence:
    """The pool generator and its reference loop agree in distribution."""

    @pytest.fixture(scope="class")
    def pools(self):
        return network_pool_pair(size=2000, seed=7)

    def test_continent_mix_close(self, pools):
        vec, sca = pools

        def mix(pool):
            return {
                continent: sum(
                    1 for n in pool.networks
                    if n.home_city.continent == continent
                )
                for continent in ("EU", "NA", "AS")
            }

        assert_category_counts_close(mix(vec), mix(sca), rel=0.15, abs_=30)

    def test_propensity_law_identical(self, pools):
        vec, sca = pools
        assert sorted(n.propensity for n in vec.networks) == pytest.approx(
            sorted(n.propensity for n in sca.networks)
        )

    def test_propensity_distribution_ks(self, pools):
        """KS-style check: the propensity *laws* agree, not just moments."""
        vec, sca = pools
        assert_ks_close(
            [n.propensity for n in vec.networks],
            [n.propensity for n in sca.networks],
            label="propensity",
        )

    def test_address_space_distribution_ks(self, pools):
        """The drawn address-space law survives the vectorized rewrite.

        Compared in log space: the law is heavy-tailed, and the KS gap of
        the raw values would be dominated by the tiny head.
        """
        vec, sca = pools
        vec_log = np.log2([n.asys.address_space for n in vec.networks])
        sca_log = np.log2([n.asys.address_space for n in sca.networks])
        assert_ks_close(vec_log, sca_log, label="log2 address space")
        assert_moments_close(vec_log, sca_log, rel=0.05,
                             label="log2 address space")

    def test_scope_sizes_close(self, pools):
        vec, sca = pools

        def sizes(pool):
            return {
                size: sum(1 for n in pool.networks if len(n.scope) == size)
                for size in (1, 2, 6)
            }

        assert_category_counts_close(sizes(vec), sizes(sca), rel=0.2, abs_=40)

    def test_invariants_hold_for_vectorized(self, pools):
        vec, _ = pools
        for n in vec.networks:
            assert n.home_city.continent in n.scope
            assert n.asys.address_space >= 256


class TestMiniEngineEquivalence:
    """Fast cross-engine checks on a 3-IXP world."""

    @pytest.fixture(scope="class")
    def worlds(self):
        return detection_world_pair(
            seed=11, acronyms=("Netnod", "TOP-IX", "TorIX")
        )

    def test_candidate_counts_close(self, worlds):
        vec, sca = worlds
        assert_counts_close(
            vec.candidate_count(), sca.candidate_count(), rel=0.05,
            label="candidates",
        )

    def test_remote_fractions_close(self, worlds):
        vec, sca = worlds
        for acr in vec.ixps:
            v = vec.remote_truth_count(acr)
            s = sca.remote_truth_count(acr)
            assert_counts_close(
                v, s, rel=0.35, abs_=6, label=f"remote truth at {acr}"
            )

    def test_partner_members_present_in_both(self, worlds):
        for world in worlds:
            partners = [
                t for t in world.truth.values()
                if t.ixp_acronym == "TOP-IX" and t.is_remote
                and t.circuit_km < 600
            ]
            assert len(partners) >= 4

    def test_anchor_interfaces_in_both(self, worlds):
        for world in worlds:
            anchors = [
                t for t in world.truth.values() if 64_600 <= t.asn < 64_650
            ]
            assert anchors


@pytest.mark.slow
class TestFullScaleEngineEquivalence:
    """Full 22-IXP worlds + a shared campaign: the PR 1 suite's pattern."""

    @pytest.fixture(scope="class")
    def worlds(self):
        return detection_world_pair(seed=42)

    def test_candidate_counts_close(self, worlds):
        vec, sca = worlds
        assert_counts_close(
            vec.candidate_count(), sca.candidate_count(), rel=0.02,
            label="candidates",
        )

    def test_remote_fraction_close(self, worlds):
        vec, sca = worlds
        v = vec.remote_truth_count() / vec.candidate_count()
        s = sca.remote_truth_count() / sca.candidate_count()
        assert v == pytest.approx(s, abs=0.02)

    def test_behavior_class_counts_close(self, worlds):
        vec, sca = worlds

        def class_counts(world):
            counts: dict[str, int] = {}
            for t in world.truth.values():
                counts[t.behavior] = counts.get(t.behavior, 0) + 1
            return counts

        vc, sc = class_counts(vec), class_counts(sca)
        assert set(vc) == set(sc)
        for behavior in vc:
            if behavior == NORMAL:
                assert_counts_close(
                    vc[behavior], sc[behavior], rel=0.02, label=behavior
                )
            else:
                # Rare classes: counts are tens, allow Poisson-scale slack.
                assert_counts_close(
                    vc[behavior], sc[behavior], rel=0.5, abs_=10,
                    label=behavior,
                )

    def test_base_rtt_distribution_ks(self, worlds):
        """Remote base RTTs agree as full distributions, not just bands."""
        vec, sca = worlds
        vec_rtts = [t.base_rtt_ms for t in vec.truth.values() if t.is_remote]
        sca_rtts = [t.base_rtt_ms for t in sca.truth.values() if t.is_remote]
        assert_ks_close(vec_rtts, sca_rtts, label="remote base RTT")
        assert_quantiles_close(
            vec_rtts, sca_rtts, qs=(10, 50, 90), rel=0.15, abs_=0.5,
            label="remote base RTT",
        )

    def test_band_histograms_close(self, worlds):
        """Ground-truth base-RTT band mix of remote interfaces."""
        vec, sca = worlds
        edges = np.array([10.0, 20.0, 50.0])

        def histogram(world):
            rtts = np.array([
                t.base_rtt_ms for t in world.truth.values() if t.is_remote
            ])
            return np.bincount(np.searchsorted(edges, rtts), minlength=4)

        hv, hs = histogram(vec), histogram(sca)
        for band, (v, s) in enumerate(zip(hv, hs)):
            assert_counts_close(v, s, rel=0.25, abs_=15, label=f"band {band}")

    def test_filter_discard_counts_close(self, worlds):
        vec, sca = worlds
        # Each world with its own engines: the product campaign and
        # filters, and the reference's per-probe campaign and stage loop.
        reports = {
            "vec": FilterPipeline().run(
                ProbeCampaign(vec, CampaignConfig(seed=7)).collect()
            ),
            "sca": ReferenceFilterPipeline().run(
                ReferenceCampaign(sca, CampaignConfig(seed=7)).collect()
            ),
        }
        for name, count in reports["sca"].discard_counts.items():
            measured = reports["vec"].discard_counts[name]
            assert max(count, 1) / 2 <= max(measured, 1) <= max(count, 1) * 2, name

    def test_no_shortfall_on_paper_catalog(self, worlds):
        for world in worlds:
            assert world.total_shortfall() <= 8


class TestZeroBandWeights:
    """Regression: all-zero ``band_weights`` used to crash ``rng.choice``."""

    def test_direct_only_spec_builds(self):
        spec = _spec(remote_fraction=0.0, band_weights=(0.0, 0.0, 0.0))
        for build in (build_detection_world, build_scalar_detection_world):
            world = build(DetectionWorldConfig(seed=2, specs=(spec,)))
            assert world.candidate_count() > 0
            assert world.remote_truth_count("T-IX") == 0

    def test_zero_weights_with_remotes_fall_back_to_uniform(self):
        spec = _spec(remote_fraction=0.3, band_weights=(0.0, 0.0, 0.0))
        for build in (build_detection_world, build_scalar_detection_world):
            world = build(DetectionWorldConfig(seed=2, specs=(spec,)))
            assert world.remote_truth_count("T-IX") > 0


class TestShortfall:
    """Regression: exhausted candidate pools used to drop members silently."""

    def test_tiny_pool_widens_instead_of_dropping(self):
        # 25 networks cannot cover every distance band of a 60-interface
        # all-remote IXP: the nominal bands run dry, draws widen, and every
        # network the pool *can* supply still becomes a member instead of
        # being silently dropped.
        spec = _spec(remote_fraction=1.0)
        config = DetectionWorldConfig(
            seed=4, specs=(spec,), pool=NetworkPoolConfig(size=25, seed=4),
            with_anchors=False,
        )
        for build in (build_detection_world, build_scalar_detection_world):
            world = build(config)
            assert world.shortfall["T-IX"] > 0
            assert world.candidate_count() >= 25

    def test_paper_mini_world_has_no_shortfall(self):
        specs = tuple(
            s for s in paper_catalog()
            if s.acronym in ("Netnod", "TOP-IX", "TorIX")
        )
        world = build_detection_world(DetectionWorldConfig(seed=11, specs=specs))
        assert world.total_shortfall() == 0

    def test_zero_propensity_pool_sampling_uniform(self):
        """All-zero propensities must not produce NaN weights."""
        db = default_city_db()
        pool = generate_network_pool(db, NetworkPoolConfig(size=50, seed=1))
        pool.propensity = np.zeros(len(pool))
        rng = np.random.default_rng(0)
        members = pool.sample_member_indices(rng, "EU", 5)
        assert len(set(members.tolist())) == 5

    def test_mixed_propensity_sampling_tops_up_from_zeros(self):
        """Fewer positive-propensity candidates than draws: the positives
        are all taken and the rest come uniformly from the zeros (the
        naive weighted choice raises ValueError here)."""
        db = default_city_db()
        pool = generate_network_pool(db, NetworkPoolConfig(size=50, seed=1))
        positive = set(pool.eligible_for("EU")[:3].tolist())
        pool.propensity = np.array(
            [1.0 if i in positive else 0.0 for i in range(len(pool))]
        )
        rng = np.random.default_rng(0)
        drawn = set(pool.sample_member_indices(rng, "EU", 10).tolist())
        assert len(drawn) == 10
        assert positive <= drawn  # every positive candidate was taken

    def test_vector_builder_sampler_with_mixed_propensities(self):
        """_weighted_sample_idx must top up from zero-propensity candidates
        instead of raising when the positives run out."""
        from repro.sim.detection_world import _WorldBuilder

        db = default_city_db()
        pool = generate_network_pool(db, NetworkPoolConfig(size=30, seed=2))
        pool.propensity = np.where(np.arange(30) < 4, 1.0, 0.0)
        builder = _WorldBuilder(
            DetectionWorldConfig(seed=2, specs=(_spec(),)), db, pool
        )
        rng = np.random.default_rng(0)
        chosen = builder._weighted_sample_idx(rng, np.arange(30), 12)
        assert len(chosen) == 12
        assert len(set(int(i) for i in chosen)) == 12
        assert set(range(4)) <= {int(i) for i in chosen}
