"""The cost model and its closed-form optima (paper equations 1-14)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.economics.model import Allocation, CostModel, CostParameters
from repro.core.economics.viability import viability_condition
from repro.errors import EconomicsError


def params(p=5.0, g=1.0, u=0.5, h=0.25, v=1.5, b=0.8) -> CostParameters:
    return CostParameters(p=p, g=g, u=u, h=h, v=v, b=b)


class TestParameters:
    def test_paper_constraints_enforced(self):
        with pytest.raises(EconomicsError):
            params(h=2.0, g=1.0)  # h must be < g
        with pytest.raises(EconomicsError):
            params(u=2.0, v=1.5)  # u < v
        with pytest.raises(EconomicsError):
            params(v=6.0, p=5.0)  # v < p
        with pytest.raises(EconomicsError):
            params(b=-0.1)

    def test_valid_accepted(self):
        params()

    @pytest.mark.parametrize("field", ["p", "g", "u", "h", "v", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(EconomicsError, match=rf"{field}=.* must be finite"):
            params(**{field: value})


class TestAllocation:
    def test_fractions_sum_to_one(self):
        model = CostModel(params())
        for n, m in [(0, 0), (1, 0), (0, 3), (2.5, 1.5)]:
            a = model.allocation(n, m)
            assert a.t + a.d + a.r == pytest.approx(1.0)
            assert a.t >= 0 and a.d >= 0 and a.r >= 0

    def test_eq3_transit_fraction(self):
        model = CostModel(params(b=0.5))
        assert model.allocation(2, 3).t == pytest.approx(math.exp(-2.5))

    def test_no_peering_all_transit(self):
        a = CostModel(params()).allocation(0, 0)
        assert a.t == pytest.approx(1.0)
        assert a.d == a.r == 0.0

    def test_remote_gets_increment(self):
        model = CostModel(params(b=1.0))
        a = model.allocation(1, 1)
        assert a.d == pytest.approx(1 - math.exp(-1))
        assert a.r == pytest.approx(math.exp(-1) - math.exp(-2))

    def test_negative_counts_rejected(self):
        with pytest.raises(EconomicsError):
            CostModel(params()).allocation(-1, 0)
        with pytest.raises(EconomicsError):
            Allocation(n=0, m=0, t=0.5, d=0.2, r=0.2)  # sums to 0.9


class TestCost:
    def test_transit_only_cost(self):
        model = CostModel(params(p=5.0))
        assert model.total_cost(0, 0) == pytest.approx(5.0)

    def test_eq12_form(self):
        """total_cost(ñ, m) must match the paper's equation 12 expansion."""
        prm = params()
        model = CostModel(prm)
        n = model.optimal_direct()
        for m in (0.0, 0.7, 2.0):
            expected = (
                (prm.p - prm.v) * math.exp(-prm.b * (n + m))
                + (prm.v - prm.u) * math.exp(-prm.b * n)
                + prm.g * n + prm.u + prm.h * m
            )
            assert model.total_cost(n, m) == pytest.approx(expected)


class TestClosedForms:
    def test_eq11_optimal_direct(self):
        prm = params()
        model = CostModel(prm)
        expected = math.log(prm.b * (prm.p - prm.u) / prm.g) / prm.b
        assert model.optimal_direct() == pytest.approx(expected)
        assert model.optimal_direct_fraction() == pytest.approx(
            1 - math.exp(-prm.b * expected)
        )

    def test_eq13_optimal_remote(self):
        prm = params()
        model = CostModel(prm)
        expected = math.log(
            prm.g * (prm.p - prm.v) / (prm.h * (prm.p - prm.u))
        ) / prm.b
        assert model.optimal_remote_extra() == pytest.approx(expected)

    def test_direct_clamped_at_zero(self):
        # Expensive IXP membership: peering never pays.
        model = CostModel(params(p=1.2, g=50.0, u=0.5, v=0.9, h=10.0))
        assert model.optimal_direct() == 0.0

    def test_eq14_viability_iff_m_tilde_geq_1(self):
        """The paper derives eq. 14 from m̃ >= 1."""
        for prm in [params(), params(b=2.0), params(h=0.9), params(b=0.2)]:
            assert viability_condition(prm).viable == (
                CostModel(prm).optimal_remote_extra() >= 1.0
            )

    def test_zero_decay_never_viable(self):
        prm = params(b=0.0)
        verdict = viability_condition(prm)
        assert verdict.ratio >= verdict.threshold == 1.0
        assert not verdict.viable
        assert CostModel(prm).optimal_direct() == 0.0


price = st.floats(min_value=2.0, max_value=50.0)
decay = st.floats(min_value=0.05, max_value=2.5)


class TestClosedFormMatchesNumeric:
    @settings(max_examples=25, deadline=None)
    @given(price, decay)
    def test_m_tilde_minimizes_cost(self, p, b):
        """Brute-force verification of equation 13 over a parameter sweep."""
        prm = params(p=p, b=b)
        model = CostModel(prm)
        analytic = model.optimal_remote_extra()
        numeric = model.numeric_optimal_remote_extra(grid=4000, max_m=40.0)
        assert numeric == pytest.approx(analytic, abs=0.05)

    @settings(max_examples=25, deadline=None)
    @given(price, decay)
    def test_adding_remote_never_beats_optimum(self, p, b):
        prm = params(p=p, b=b)
        model = CostModel(prm)
        n = model.optimal_direct()
        best = model.total_cost(n, model.optimal_remote_extra())
        for m in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert best <= model.total_cost(n, m) + 1e-9
