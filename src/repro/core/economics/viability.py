"""The economic-viability condition and its regional implications.

Equation 14: remote peering at one or more IXPs reduces total cost iff

    g·(p − v) / (h·(p − u))  ≥  e^b

— remote peering favours networks with *global* traffic (low ``b``) and
regions where its fixed-cost advantage ``g/h`` is large.  Section 5.2
singles out Africa: local IXPs offer little offload and transit is
expensive, so ``h ≪ g`` and remote peering to Europe wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.economics.model import CostModel, CostParameters
from repro.errors import EconomicsError


@dataclass(frozen=True, slots=True)
class ViabilityVerdict:
    """Outcome of the viability test for one parameter set."""

    params: CostParameters
    ratio: float        # g(p−v) / (h(p−u))
    threshold: float    # e^b
    viable: bool
    optimal_remote_ixps: float  # m̃ (0 when not viable)


def viability_condition(params: CostParameters) -> ViabilityVerdict:
    """Evaluate equation 14 for one parameter set.

    At ``b = 0`` reaching IXPs never shrinks transit (eq. 3), so remote
    peering buys nothing and is not viable, although the ratio meets
    ``e^0 = 1``.
    """
    ratio = params.g * (params.p - params.v) / (
        params.h * (params.p - params.u)
    )
    threshold = math.exp(params.b)
    model = CostModel(params)
    return ViabilityVerdict(
        params=params,
        ratio=ratio,
        threshold=threshold,
        viable=params.b > 0 and ratio >= threshold,
        optimal_remote_ixps=model.optimal_remote_extra(),
    )


def viability_grid(
    base: CostParameters,
    g_over_h: np.ndarray,
    b_values: np.ndarray,
) -> np.ndarray:
    """Boolean viability matrix over (g/h ratio, b) — the Section 5 sweep.

    ``g`` is held at the base value and ``h`` derived from each ratio, so
    the constraint h < g stays satisfied for ratios > 1.
    """
    grid = np.zeros((len(g_over_h), len(b_values)), dtype=bool)
    for i, ratio in enumerate(g_over_h):
        if ratio <= 1.0:
            raise EconomicsError("g/h must exceed 1 (h < g by assumption)")
        h = base.g / float(ratio)
        for j, b in enumerate(b_values):
            params = CostParameters(
                p=base.p, g=base.g, u=base.u, h=h, v=base.v, b=float(b)
            )
            grid[i, j] = viability_condition(params).viable
    return grid


def african_scenario(b: float = 0.5) -> ViabilityVerdict:
    """Section 5.2's Africa case: h ≪ g because local IXPs offload little
    and transit is expensive.  Remote peering to a European hub wins for
    any realistic decay rate."""
    params = CostParameters(
        p=10.0,   # expensive transit
        g=8.0,    # extending own infrastructure to Europe: very costly
        u=1.0,
        h=0.8,    # remote-peering service: an order of magnitude cheaper
        v=3.0,
        b=b,
    )
    return viability_condition(params)
