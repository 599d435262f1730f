"""Economic viability of remote peering (paper Section 5).

The model prices three delivery options — transit, direct peering at ``n``
IXPs, remote peering at ``m`` IXPs — under the exponentially decaying
transit fraction ``t = e^{-b(n+m)}`` fitted from the offload study, and
derives the paper's closed forms: optimal direct-peering footprint ñ
(eq. 11), optimal remote-peering extension m̃ (eq. 13), and the viability
condition g(p−v)/(h(p−u)) ≥ e^b (eq. 14).
"""

from repro.core.economics.model import CostParameters, CostModel, Allocation
from repro.core.economics.fitting import (
    DecayFit,
    fit_exponential_decay,
    fit_power_decay,
)
from repro.core.economics.viability import (
    ViabilityVerdict,
    viability_condition,
    viability_grid,
    african_scenario,
)

__all__ = [
    "CostParameters",
    "CostModel",
    "Allocation",
    "DecayFit",
    "fit_exponential_decay",
    "fit_power_decay",
    "ViabilityVerdict",
    "viability_condition",
    "viability_grid",
    "african_scenario",
]
