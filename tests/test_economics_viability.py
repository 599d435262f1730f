"""The viability condition (equation 14) and its regional sweep."""

import math

import numpy as np
import pytest

from repro.core.economics.model import CostParameters
from repro.core.economics.viability import (
    african_scenario,
    viability_condition,
    viability_grid,
)
from repro.errors import EconomicsError


def params(b=0.8, g=1.0, h=0.25) -> CostParameters:
    return CostParameters(p=5.0, g=g, u=0.5, h=h, v=1.5, b=b)


class TestCondition:
    def test_verdict_fields(self):
        verdict = viability_condition(params(b=0.5))
        assert verdict.ratio == pytest.approx(
            1.0 * (5.0 - 1.5) / (0.25 * (5.0 - 0.5))
        )
        assert verdict.threshold == pytest.approx(math.exp(0.5))
        assert verdict.viable == (verdict.ratio >= verdict.threshold)

    def test_low_b_viable_high_b_not(self):
        """Equation 14: global-traffic networks (low b) profit from remote
        peering; fast-decay networks do not."""
        assert viability_condition(params(b=0.3)).viable
        assert not viability_condition(params(b=2.5)).viable

    def test_threshold_b_is_the_boundary(self):
        prm = params()
        b_star = math.log(viability_condition(prm).ratio)
        below = CostParameters(p=prm.p, g=prm.g, u=prm.u, h=prm.h, v=prm.v,
                               b=b_star * 0.95)
        above = CostParameters(p=prm.p, g=prm.g, u=prm.u, h=prm.h, v=prm.v,
                               b=b_star * 1.05)
        assert viability_condition(below).viable
        assert not viability_condition(above).viable

    def test_viable_implies_positive_m(self):
        verdict = viability_condition(params(b=0.4))
        assert verdict.viable
        assert verdict.optimal_remote_ixps >= 1.0


class TestGrid:
    def test_viability_monotone_in_g_over_h(self):
        """A larger fixed-cost advantage can only help remote peering."""
        base = params()
        ratios = np.array([2.0, 4.0, 8.0, 16.0])
        bs = np.array([0.3, 0.8, 1.5, 2.5])
        grid = viability_grid(base, ratios, bs)
        for j in range(len(bs)):
            column = grid[:, j].astype(int)
            assert np.all(np.diff(column) >= 0)

    def test_viability_monotone_decreasing_in_b(self):
        base = params()
        ratios = np.array([2.0, 8.0])
        bs = np.array([0.2, 0.6, 1.2, 2.4])
        grid = viability_grid(base, ratios, bs)
        for i in range(len(ratios)):
            row = grid[i, :].astype(int)
            assert np.all(np.diff(row) <= 0)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(EconomicsError):
            viability_grid(params(), np.array([0.5]), np.array([0.5]))


class TestAfricanScenario:
    def test_africa_viable(self):
        """Section 5.2: with h << g, remote peering wins for African
        networks reaching European hubs."""
        verdict = african_scenario()
        assert verdict.viable
        assert verdict.params.h < verdict.params.g / 5
        assert verdict.optimal_remote_ixps > 1.0
