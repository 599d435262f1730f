"""Small statistics helpers: the empirical CDF of Figure 2."""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError


def cdf_at(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """CDF evaluated at arbitrary points (fraction of samples ≤ point)."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise AnalysisError("cannot evaluate a CDF on an empty sample")
    points = np.asarray(points, dtype=float)
    return np.searchsorted(values, points, side="right") / values.size

