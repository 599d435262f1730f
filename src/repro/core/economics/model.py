"""The traffic-delivery cost model (paper equations 1–13).

A network delivers its global traffic through transit (fraction ``t``),
direct peering at ``n`` IXPs (fraction ``d``), and remote peering at ``m``
IXPs (fraction ``r``), with ``t + d + r = 1`` (eq. 1).  Reaching IXPs
shrinks the transit fraction exponentially, ``t = e^{-b(n+m)}`` (eq. 3),
generalizing the diminishing marginal utility measured in Section 4.  The
model follows the paper's sequential strategy: the network first optimises
a direct-peering footprint, then extends it with remote peering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import EconomicsError


@dataclass(frozen=True, slots=True)
class CostParameters:
    """Prices and the decay rate (the paper's p, g, u, h, v, b).

    Constraints from Section 5.1: ``h < g`` (remote peering has the lower
    per-IXP fixed cost) and ``u < v < p`` (remote peering's per-unit cost
    sits between direct peering's and transit's).
    """

    p: float  # transit price per traffic unit
    g: float  # direct peering: per-IXP traffic-independent cost
    u: float  # direct peering: traffic-dependent cost per unit
    h: float  # remote peering: per-IXP traffic-independent cost
    v: float  # remote peering: traffic-dependent cost per unit
    b: float  # transit-fraction decay rate per reached IXP

    def __post_init__(self) -> None:
        # Every message names each parameter it is about as ``x=value``.
        for name in ("p", "g", "u", "h", "v", "b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise EconomicsError(f"{name}={value} must be finite")
            if value < 0:
                raise EconomicsError(f"{name}={value} cannot be negative")
        if not self.h < self.g:
            raise EconomicsError(
                f"remote fixed cost h={self.h} must be below direct g={self.g}"
            )
        if not self.u < self.v < self.p:
            raise EconomicsError(
                f"per-unit costs must satisfy u < v < p, got "
                f"u={self.u}, v={self.v}, p={self.p}"
            )


@dataclass(frozen=True, slots=True)
class Allocation:
    """Traffic split for a given (n, m) under the sequential strategy."""

    n: float
    m: float
    t: float  # transit fraction
    d: float  # direct-peering fraction
    r: float  # remote-peering fraction

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise EconomicsError("IXP counts cannot be negative")
        total = self.t + self.d + self.r
        if abs(total - 1.0) > 1e-9:
            raise EconomicsError(f"fractions must sum to 1, got {total}")


class CostModel:
    """Total-cost arithmetic and the paper's closed-form optima."""

    def __init__(self, params: CostParameters) -> None:
        self.params = params

    def allocation(self, n: float, m: float) -> Allocation:
        """Traffic split when the first ``n`` IXPs are direct, next ``m`` remote.

        Direct peering keeps the traffic it would capture alone
        (``1 − e^{-bn}``); remote peering captures the increment — the split
        implied by the paper's equation 12.
        """
        self._check_counts(n, m)
        b = self.params.b
        t = math.exp(-b * (n + m))
        d = 1.0 - math.exp(-b * n)
        r = math.exp(-b * n) - t
        return Allocation(n=n, m=m, t=t, d=d, r=r)

    # -- costs -----------------------------------------------------------------------

    def total_cost(self, n: float, m: float) -> float:
        """C = p·t + g·n + u·d + h·m + v·r (eq. 9)."""
        a = self.allocation(n, m)
        p = self.params
        return p.p * a.t + p.g * a.n + p.u * a.d + p.h * a.m + p.v * a.r

    # -- closed-form optima ------------------------------------------------------------

    def optimal_direct(self) -> float:
        """ñ = ln(b(p−u)/g) / b (eq. 11), clamped at 0.

        When the expression is negative, even the first direct-peering IXP
        costs more than it saves, and the optimum is to buy transit only.
        """
        p = self.params
        if p.b == 0:
            return 0.0
        ratio = p.b * (p.p - p.u) / p.g
        if ratio <= 1.0:
            return 0.0
        return math.log(ratio) / p.b

    def optimal_direct_fraction(self) -> float:
        """d̃ = 1 − e^{-b·ñ} (eq. 11)."""
        return 1.0 - math.exp(-self.params.b * self.optimal_direct())

    def optimal_remote_extra(self) -> float:
        """m̃ = ln( g(p−v) / (h(p−u)) ) / b (eq. 13), clamped at 0.

        Equation 13 assumes equation 11's *interior* optimum ñ > 0.  When
        direct peering is not worth even one IXP (ñ clamped to 0), the
        optimal remote extension comes from minimising eq. 12 at n = 0:
        m* = ln(b(p−v)/h)/b.  Both cases are the same expression
        ``ln(b(p−v)/h)/b − ñ`` with the respective ñ.
        """
        p = self.params
        if p.b == 0:
            return 0.0
        remote_total = p.b * (p.p - p.v) / p.h
        if remote_total <= 1.0:
            return 0.0
        optimum = math.log(remote_total) / p.b - self.optimal_direct()
        return max(0.0, optimum)

    # -- numeric verification helpers -------------------------------------------------------

    def numeric_optimal_remote_extra(
        self, n: float | None = None, grid: int = 20_000, max_m: float = 60.0
    ) -> float:
        """Brute-force argmin over m at fixed n (tests the closed form)."""
        n = self.optimal_direct() if n is None else n
        best_m, best_cost = 0.0, self.total_cost(n, 0.0)
        for i in range(1, grid + 1):
            m = max_m * i / grid
            cost = self.total_cost(n, m)
            if cost < best_cost:
                best_m, best_cost = m, cost
        return best_m

    def _check_counts(self, n: float, m: float) -> None:
        if n < 0 or m < 0:
            raise EconomicsError("IXP counts cannot be negative")
