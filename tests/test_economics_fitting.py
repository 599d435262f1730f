"""Decay fitting for the transit fraction."""

import numpy as np
import pytest

from repro.core.economics.fitting import (
    fit_exponential_decay,
    fit_power_decay,
)
from repro.errors import AnalysisError


def synthetic_series(b: float, floor: float, k: int = 20,
                     baseline: float = 8e9) -> np.ndarray:
    ks = np.arange(k, dtype=float)
    fractions = floor + (1 - floor) * np.exp(-b * ks)
    return baseline * fractions


class TestExponentialFit:
    def test_recovers_known_rate(self):
        series = synthetic_series(b=0.6, floor=0.7)
        fit = fit_exponential_decay(series)
        assert fit.rate == pytest.approx(0.6, rel=0.05)
        assert fit.floor == pytest.approx(0.7, abs=0.02)
        assert fit.family == "exponential"

    def test_predict_matches_input(self):
        series = synthetic_series(b=0.4, floor=0.75)
        fit = fit_exponential_decay(series)
        ks = np.arange(len(series), dtype=float)
        predicted = fit.predict(ks) * series[0]
        assert np.allclose(predicted, series, rtol=0.03)

    def test_scalar_predict(self):
        series = synthetic_series(b=0.5, floor=0.7)
        fit = fit_exponential_decay(series)
        assert fit.predict(0.0) == pytest.approx(1.0, abs=0.02)

    def test_flat_series_rate_zero(self):
        fit = fit_exponential_decay(np.full(10, 5e9))
        assert fit.rate == 0.0

    def test_rejects_rising_series(self):
        with pytest.raises(AnalysisError):
            fit_exponential_decay(np.array([1.0, 2.0, 3.0]))

    def test_rejects_short_series(self):
        with pytest.raises(AnalysisError):
            fit_exponential_decay(np.array([1.0, 0.9]))


class TestPowerFit:
    def test_recovers_power_rate(self):
        ks = np.arange(20, dtype=float)
        fractions = 0.7 + 0.3 * (1 + ks) ** -1.2
        series = 8e9 * fractions
        fit = fit_power_decay(series)
        assert fit.family == "power"
        assert fit.rate == pytest.approx(1.2, rel=0.1)


class TestModelSelection:
    def test_exponential_data_prefers_exponential(self):
        """The paper models decay as exponential; on exponential data the
        exponential family must win the SSE comparison (our ablation)."""
        series = synthetic_series(b=0.8, floor=0.72)
        exp_fit = fit_exponential_decay(series)
        pow_fit = fit_power_decay(series)
        assert exp_fit.sse < pow_fit.sse

    def test_measured_offload_curve_is_exponential_like(self, small_estimator):
        """The generated world's greedy curve is well described by the
        paper's exponential-decay model (eq. 3)."""
        from repro.core.offload.greedy import remaining_traffic_series

        series = np.array(
            remaining_traffic_series(small_estimator, 4, max_ixps=15)
        )
        exp_fit = fit_exponential_decay(series)
        assert exp_fit.rate > 0
        # Near-perfect fit in fraction space: eq. 3 is a sound abstraction.
        assert exp_fit.sse < 0.01


def random_monotone_series(rng: np.random.Generator) -> np.ndarray:
    """A non-increasing series of 3-30 points with a positive baseline:
    greedy-like step curves with plateaus, exact decays toward a floor,
    sorted uniforms with flat tails, and small integers full of ties."""
    n = int(rng.integers(3, 31))
    shape = int(rng.integers(4))
    if shape == 0:
        steps = rng.exponential(1.0, n - 1) * (rng.random(n - 1) < 0.8)
        drops = np.concatenate([[0.0], np.cumsum(steps)])
        series = drops[-1] + rng.random() * 5.0 - drops
    elif shape == 1:
        floor = rng.uniform(0.0, 0.95)
        decay = np.exp(-rng.uniform(0.01, 2.0) * np.arange(n))
        series = 1e9 * (floor + (1.0 - floor) * decay)
    elif shape == 2:
        series = np.sort(rng.random(n))[::-1] * rng.uniform(1.0, 1e10)
        if rng.random() < 0.5:
            series[int(rng.integers(1, n)):] = series[-1]
    else:
        series = np.sort(rng.integers(0, 5, n))[::-1] + rng.integers(1, 3)
    return np.asarray(series, dtype=float)


@pytest.mark.slow
class TestGridMatchesScalarOracle:
    """The array-pass floor grid is the one-floor-at-a-time fit, bit for
    bit: every ``DecayFit`` field compares with ``==``."""

    @pytest.mark.parametrize("family", ["exponential", "power"])
    def test_random_monotone_series(self, family):
        from repro.core.economics.fitting import _fit
        from tests.reference.fitting import scalar_fit

        rng = np.random.default_rng(20_261_019)
        for _ in range(2_000):
            series = random_monotone_series(rng)
            assert _fit(family, series) == scalar_fit(family, series), (
                series.tolist()
            )

    def test_non_finite_series_rejected(self):
        with pytest.raises(AnalysisError, match="finite"):
            fit_exponential_decay(np.array([1.0, np.nan, 0.5]))
