"""Fitting the transit-fraction decay from empirical offload curves.

Equation 3 generalizes Figure 9's measured curves as ``t = e^{-b·k}``
(k = reached IXPs).  Measured curves flatten at a floor — the transit
traffic no peer group can reach — so we fit ``t = floor + (1-floor)·decay``
with the floor chosen by grid search and the rate by least squares in log
space.  A power-law alternative ``(1+k)^{-a}`` lets the exponential-decay
modelling choice be ablated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class DecayFit:
    """A fitted decay model for the offloadable transit fraction."""

    family: str  # "exponential" | "power"
    rate: float  # b for exponential, a for power
    floor: float  # non-offloadable transit fraction (asymptote)
    sse: float  # sum of squared errors in fraction space

    def predict(self, k: np.ndarray | float) -> np.ndarray | float:
        """Predicted transit fraction after reaching ``k`` IXPs."""
        karr = np.asarray(k, dtype=float)
        span = 1.0 - self.floor
        if self.family == "exponential":
            values = self.floor + span * np.exp(-self.rate * karr)
        else:
            values = self.floor + span * (1.0 + karr) ** (-self.rate)
        return float(values) if np.isscalar(k) else values


def _normalise(remaining: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert a remaining-traffic series to fractions of the baseline."""
    remaining = np.asarray(remaining, dtype=float)
    if remaining.ndim != 1 or remaining.size < 3:
        raise AnalysisError("need a 1-D series of at least 3 points")
    if not np.isfinite(remaining).all():
        raise AnalysisError("remaining traffic must be finite")
    if remaining[0] <= 0:
        raise AnalysisError("baseline traffic must be positive")
    fractions = remaining / remaining[0]
    if np.any(fractions < -1e-9) or np.any(fractions > 1.0 + 1e-9):
        raise AnalysisError("remaining traffic must be within [0, baseline]")
    ks = np.arange(fractions.size, dtype=float)
    return fractions, ks


def _grid(
    family: str, fractions: np.ndarray, ks: np.ndarray, floors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rate and SSE of every candidate floor, as (floor × k) array passes.

    Row ``i`` carries exactly the arithmetic of a fit at ``floors[i]``
    alone: the rate is the least-squares slope in log space over the
    points left above the floor, and the SSE is in fraction space.  The
    elementwise steps run over the whole grid, each sum reduces one row,
    and each slope is one ``np.dot`` of the same two vectors, so every
    row is bit-identical to the one-floor computation
    (``tests/reference/fitting.py`` keeps it as the oracle).
    """
    spans = 1.0 - floors
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = (fractions - floors[:, None]) / spans[:, None]
    kept = shifted > 1e-9
    # Floors that keep the same points share the regressor; on a
    # monotone series the kept points are a prefix, so few patterns.
    rows_of: dict[bytes, list[int]] = {}
    for row in np.flatnonzero(spans > 0):
        rows_of.setdefault(kept[row].tobytes(), []).append(int(row))
    rates = np.zeros(floors.size)
    for rows in rows_of.values():
        mask = kept[rows[0]]
        if mask.sum() < 2:
            continue
        x = ks[mask] if family == "exponential" else np.log(1.0 + ks[mask])
        x_centered = x - x.mean()
        denom = float(np.dot(x_centered, x_centered))
        if denom == 0:
            continue
        # ``np.ix_`` keeps C order, so each row's sum and dot run over
        # contiguous memory as a lone floor's vector does.  A strided
        # row, or one matrix-vector product for all rows, takes another
        # BLAS kernel, which can round differently.
        y = np.log(shifted[np.ix_(rows, mask)])
        y_centered = y - y.mean(axis=1)[:, None]
        slopes = np.array([np.dot(x_centered, r) for r in y_centered]) / denom
        rates[rows] = np.where(slopes < 0.0, -slopes, 0.0)  # max(0, -slope)
    if family == "exponential":
        decay = np.exp(-rates[:, None] * ks)
    else:
        decay = (1.0 + ks) ** -rates[:, None]
    predicted = floors[:, None] + spans[:, None] * decay
    return rates, ((predicted - fractions) ** 2).sum(axis=1)


def _fit(family: str, remaining: np.ndarray) -> DecayFit:
    fractions, ks = _normalise(remaining)
    observed_floor = float(fractions.min())

    def best_of(floors: np.ndarray) -> DecayFit:
        # The first floor of least SSE, as a scan keeping strict
        # improvements would pick.
        rates, sse = _grid(family, fractions, ks, floors)
        i = int(np.argmin(sse))
        return DecayFit(family=family, rate=float(rates[i]),
                        floor=float(floors[i]), sse=float(sse[i]))

    # Stage 1 — coarse grid over [0, observed minimum]: the true asymptote
    # sits at or below the last observed point.
    best = best_of(np.linspace(0.0, observed_floor, 26))
    # Stage 2 — refine around the winner: the rate estimate is sensitive to
    # the floor, so a finer local grid sharpens both.
    step = observed_floor / 25.0 if observed_floor > 0 else 0.0
    if step > 0:
        low = max(0.0, best.floor - step)
        high = min(observed_floor, best.floor + step)
        refined = best_of(np.linspace(low, high, 41))
        if refined.sse < best.sse:
            best = refined
    return best


def fit_exponential_decay(remaining: np.ndarray) -> DecayFit:
    """Fit ``t(k) = floor + (1-floor)·e^{-b·k}`` to a remaining series."""
    return _fit("exponential", remaining)


def fit_power_decay(remaining: np.ndarray) -> DecayFit:
    """Fit ``t(k) = floor + (1-floor)·(1+k)^{-a}`` to a remaining series."""
    return _fit("power", remaining)
