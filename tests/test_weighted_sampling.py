"""The weighted samplers behind the world builds, held to numpy as oracle.

:func:`repro.rand.weighted_choice` runs ``Generator.choice(replace=False,
p=...)``'s draw loop with sorted-probe lookups, and
:func:`repro.rand.sorted_probe_search` stands in for
``np.searchsorted(side="right")``.  Every detection and mega world's
member draws and the mega world's provider picks go through them, so
these suites compare them with numpy's own calls, draw for draw: the
same indices and the same generator state afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.cities import default_city_db
from repro.rand import sorted_probe_search, weighted_choice
from repro.sim.megatopo import _weighted_rows
from repro.sim.netpool import (
    NetworkPoolConfig,
    generate_network_pool,
    weighted_index_sample,
)

FAMILIES = (
    "uniform", "power-law", "exact-tie", "all-tied", "lognormal-zeros",
    "tiny-scale",
)


def random_weights(case: np.random.Generator, family: str) -> np.ndarray:
    """One weight vector of ``family`` with 1–600 entries."""
    n = int(case.integers(1, 600))
    if family == "uniform":
        return case.random(n) + 1e-3
    if family == "power-law":
        return case.permutation(np.arange(1, n + 1) ** -case.uniform(0.5, 3))
    if family == "exact-tie":  # a handful of distinct values, many equal
        return case.choice([0.5, 1.0, 2.0, 7.0], size=n)
    if family == "all-tied":
        return np.full(n, 3.0)
    if family == "lognormal-zeros":
        weights = case.lognormal(0.0, 2.0, size=n)
        weights[case.random(n) < 0.3] = 0.0
        if not weights.any():
            weights[case.integers(n)] = 1.0
        return weights
    return case.random(n) * 1e-300 + 1e-300  # tiny-scale


def assert_same_draws(weights: np.ndarray, count: int, seed: int) -> None:
    p = weights / weights.sum()
    oracle = np.random.default_rng(seed)
    expected = oracle.choice(len(p), size=count, replace=False, p=p)
    rng = np.random.default_rng(seed)
    got = weighted_choice(rng, p, count)
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == oracle.bit_generator.state


class TestWeightedChoiceOracle:
    def test_3000_random_cases_match_generator_choice(self):
        for case_id in range(3000):
            case = np.random.default_rng([11, case_id])
            family = FAMILIES[case_id % len(FAMILIES)]
            weights = random_weights(case, family)
            positive = int(np.count_nonzero(weights))
            # Every fourth case draws all the positive entries.
            count = (
                positive if case_id % 4 == 0
                else int(case.integers(0, positive + 1))
            )
            seed = int(case.integers(2**32))
            try:
                assert_same_draws(weights, count, seed)
            except AssertionError as exc:
                raise AssertionError(
                    f"case {case_id} ({family}, n={len(weights)}, "
                    f"count={count}, seed={seed})"
                ) from exc

    def test_mega_sized_draw(self):
        """One Euro-IX exchange of the 100k mega world: ~52k candidates."""
        pool = generate_network_pool(
            default_city_db(), NetworkPoolConfig(size=100_000, seed=5)
        )
        weights = pool.propensity[pool.eligible_for("EU")]
        assert len(weights) > 50_000
        assert_same_draws(weights, 8_875, seed=17)

    def test_weighted_index_sample_is_choice_on_the_positive_path(self):
        for case_id in range(200):
            case = np.random.default_rng([12, case_id])
            weights = random_weights(case, FAMILIES[case_id % len(FAMILIES)])
            indices = np.sort(case.choice(10**6, len(weights), replace=False))
            count = int(case.integers(0, np.count_nonzero(weights) + 1))
            oracle = np.random.default_rng(case_id)
            expected = oracle.choice(
                indices, size=count, replace=False,
                p=weights / weights.sum(),
            )
            rng = np.random.default_rng(case_id)
            got = weighted_index_sample(rng, weights, count, indices=indices)
            assert np.array_equal(got, expected), case_id
            assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_invalid_probabilities_raise(self, bad):
        p = np.full(10, 0.1)
        p[3] = bad
        with pytest.raises(ValueError):
            weighted_choice(np.random.default_rng(0), p, 2)

    def test_fewer_positive_probabilities_than_draws_raise(self):
        p = np.array([0.5, 0.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            weighted_choice(np.random.default_rng(0), p, 3)


class TestSortedProbeSearch:
    def test_matches_searchsorted_right(self):
        for case_id in range(300):
            case = np.random.default_rng([13, case_id])
            weights = case.random(int(case.integers(1, 400)))
            weights[case.random(len(weights)) < 0.4] = 0.0  # flat runs
            cdf = np.cumsum(weights)
            probes = case.uniform(-0.1, cdf[-1] + 0.1, size=(
                int(case.integers(1, 300)), int(case.integers(1, 4))
            ))
            # Probes equal to CDF entries, including the flat runs' values.
            flat = probes.ravel()
            exact = case.integers(0, flat.size, size=flat.size // 3)
            flat[exact] = cdf[case.integers(0, len(cdf), size=exact.size)]
            hits, order = sorted_probe_search(cdf, probes)
            expected = np.searchsorted(cdf, probes, side="right")
            assert hits.shape == probes.shape
            assert np.array_equal(hits, expected), case_id
            assert np.all(np.diff(hits.ravel()[order]) >= 0)

    def test_empty_probes(self):
        hits, order = sorted_probe_search(np.arange(3.0), np.zeros(0))
        assert hits.size == order.size == 0


def reference_weighted_rows(rng, candidates, weights, rows, k):
    """The provider-pick loop with numpy's own lookups and dedupe."""
    cum = np.cumsum(weights)
    total = cum[-1]
    picks = candidates[
        np.searchsorted(cum, rng.random((rows, k)) * total, side="right")
    ]
    if k == 1:
        return picks
    while True:
        srt = np.sort(picks, axis=1)
        dup_rows = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if not dup_rows.size:
            return picks
        picks[dup_rows] = candidates[
            np.searchsorted(
                cum, rng.random((dup_rows.size, k)) * total, side="right"
            )
        ]


class TestWeightedRows:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("size", [4, 12, 400])
    def test_matches_searchsorted_picks(self, k, size):
        case = np.random.default_rng([14, k, size])
        candidates = np.sort(case.choice(10**5, size, replace=False))
        weights = case.permutation(np.arange(1, size + 1) ** -1.2)
        oracle = np.random.default_rng(size)
        expected = reference_weighted_rows(
            oracle, candidates, weights, 5_000, k
        )
        rng = np.random.default_rng(size)
        got = _weighted_rows(rng, candidates, weights, 5_000, k)
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == oracle.bit_generator.state


class TestWeightedIndexSampleBranches:
    def test_all_zero_weights_draw_uniformly(self):
        indices = np.arange(100, 140)
        got = weighted_index_sample(
            np.random.default_rng(4), np.zeros(40), 15, indices=indices
        )
        expected = np.random.default_rng(4).choice(
            indices, size=15, replace=False
        )
        assert np.array_equal(got, expected)
        assert len(set(got.tolist())) == 15

    def test_fewer_positives_than_count_take_them_all_then_zeros(self):
        weights = np.array([0.0, 2.0, 0.0, 0.0, 5.0, 0.0, 1.0, 0.0])
        indices = np.arange(10, 18)
        got = weighted_index_sample(
            np.random.default_rng(6), weights, 5, indices=indices
        )
        # Every positive entry, in index order, then two zero-weight
        # entries drawn uniformly.
        assert got[:3].tolist() == [11, 14, 16]
        expected_zeros = np.random.default_rng(6).choice(
            np.array([10, 12, 13, 15, 17]), size=2, replace=False
        )
        assert np.array_equal(got[3:], expected_zeros)

    @pytest.mark.parametrize("weights", [
        np.zeros(30), np.ones(30), np.r_[np.ones(3), np.zeros(27)],
    ], ids=["all-zero", "positive", "few-positive"])
    def test_count_zero_consumes_no_uniforms(self, weights):
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        got = weighted_index_sample(rng, weights, 0)
        assert got.size == 0
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_nan_or_negative_weight_on_the_positive_path_raises(self, bad):
        weights = np.ones(20)
        weights[5] = bad
        with pytest.raises(ValueError):
            weighted_index_sample(np.random.default_rng(0), weights, 4)

    @pytest.mark.parametrize("weights,count", [
        ([np.nan, 1, 0, 0, 2], 4), ([-1, 0, 0], 2), ([np.nan, 0, 0], 2),
    ], ids=["few-positive-nan", "all-zero-negative", "all-zero-nan"])
    def test_nan_or_negative_weight_on_the_zero_paths_raises(
        self, weights, count
    ):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            weighted_index_sample(rng, np.array(weights, dtype=float), count)
        assert rng.bit_generator.state == before
