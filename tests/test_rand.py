"""Deterministic randomness helpers."""

import numpy as np
from hypothesis import given, strategies as st

from repro.rand import (
    child_rng,
    derive_seed,
    double_pareto_rates,
    make_rng,
)


class TestMakeRng:
    def test_int_seed_reproducible(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_fits_in_63_bits(self, root, label):
        seed = derive_seed(root, label)
        assert 0 <= seed < 2**63

    def test_child_rng_independent_streams(self):
        a = child_rng(42, "x").random(4)
        b = child_rng(42, "y").random(4)
        assert not np.array_equal(a, b)


class TestDoublePareto:
    def test_shape_and_positivity(self):
        rng = make_rng(3)
        rates = double_pareto_rates(1000, rng, top_rate=1e9, bend_rank=200,
                                    head_exponent=1.0, tail_exponent=2.5)
        assert rates.shape == (1000,)
        assert np.all(rates > 0)

    def test_bend_steepens_tail(self):
        rng = make_rng(0)
        rates = double_pareto_rates(10_000, rng, top_rate=1.0, bend_rank=1000,
                                    head_exponent=1.0, tail_exponent=3.0,
                                    noise_sigma=0.0)
        # Log-log slope beyond the bend is steeper than before it.
        head_slope = np.log(rates[900] / rates[90]) / np.log(900 / 90)
        tail_slope = np.log(rates[9000] / rates[2000]) / np.log(9000 / 2000)
        assert tail_slope < head_slope < 0

    def test_noise_free_is_monotone(self):
        rng = make_rng(0)
        rates = double_pareto_rates(500, rng, top_rate=1.0, bend_rank=100,
                                    head_exponent=1.0, tail_exponent=2.0,
                                    noise_sigma=0.0)
        assert np.all(np.diff(rates) <= 0)
