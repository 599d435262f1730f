"""The one-floor-at-a-time decay fit: the oracle of the grid fit.

:mod:`repro.core.economics.fitting` evaluates each floor grid as array
passes; this is the seed implementation's loop, one ``_evaluate`` call
per candidate floor, with its own normalisation and prediction.
``tests/test_economics_fitting.py`` holds the product to it field for
field with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.core.economics.fitting import DecayFit


def _normalise(remaining: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    remaining = np.asarray(remaining, dtype=float)
    fractions = remaining / remaining[0]
    return fractions, np.arange(fractions.size, dtype=float)


def _predict(family: str, rate: float, floor: float,
             ks: np.ndarray) -> np.ndarray:
    karr = np.asarray(ks, dtype=float)
    span = 1.0 - floor
    if family == "exponential":
        return floor + span * np.exp(-rate * karr)
    return floor + span * (1.0 + karr) ** (-rate)


def _rate_for_floor(
    family: str, fractions: np.ndarray, ks: np.ndarray, floor: float
) -> float:
    """Least-squares rate in log space for one candidate floor."""
    span = 1.0 - floor
    if span <= 0:
        return 0.0
    shifted = (fractions - floor) / span
    mask = shifted > 1e-9
    if mask.sum() < 2:
        return 0.0
    x = ks[mask] if family == "exponential" else np.log(1.0 + ks[mask])
    y = np.log(shifted[mask])
    x_centered = x - x.mean()
    denom = float(np.dot(x_centered, x_centered))
    if denom == 0:
        return 0.0
    slope = float(np.dot(x_centered, y - y.mean()) / denom)
    return max(0.0, -slope)


def _evaluate(
    family: str, fractions: np.ndarray, ks: np.ndarray, floor: float
) -> DecayFit:
    rate = _rate_for_floor(family, fractions, ks, floor)
    sse = float(np.sum((_predict(family, rate, floor, ks) - fractions) ** 2))
    return DecayFit(family=family, rate=rate, floor=floor, sse=sse)


def scalar_fit(family: str, remaining: np.ndarray) -> DecayFit:
    """The two-stage floor grid search, one floor at a time."""
    fractions, ks = _normalise(remaining)
    observed_floor = float(fractions.min())
    best: DecayFit | None = None
    for floor in np.linspace(0.0, observed_floor, 26):
        candidate = _evaluate(family, fractions, ks, float(floor))
        if best is None or candidate.sse < best.sse:
            best = candidate
    assert best is not None
    step = observed_floor / 25.0 if observed_floor > 0 else 0.0
    if step > 0:
        low = max(0.0, best.floor - step)
        high = min(observed_floor, best.floor + step)
        for floor in np.linspace(low, high, 41):
            candidate = _evaluate(family, fractions, ks, float(floor))
            if candidate.sse < best.sse:
                best = candidate
    return best
