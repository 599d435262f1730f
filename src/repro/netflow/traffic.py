"""Per-network transit-traffic rates calibrated to Figure 5a.

The RedIRIS dataset ranks 29,570 networks by their average contribution to
the transit-provider traffic; contributions span ~1 Gbps down to a few bps
with a visible bend toward faster decline near rank 20,000.  The offload
world draws exactly that rank profile (double-Pareto with a bend,
:func:`rank_profile_totals`) and splits each network's traffic into
inbound and outbound by business type (:func:`split_totals_by_kind`):
content networks are origin-heavy (traffic flows *into* RedIRIS), access
networks are destination-heavy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rand import double_pareto_rates
from repro.types import NetworkKind
from repro.units import GBPS

#: Fraction of a network's RedIRIS traffic that is inbound (origin side),
#: by business type.
_INBOUND_SHARE = {
    NetworkKind.CONTENT: 0.85,
    NetworkKind.CDN: 0.85,
    NetworkKind.HOSTING: 0.70,
    NetworkKind.TRANSIT: 0.60,
    NetworkKind.NREN: 0.55,
    NetworkKind.ENTERPRISE: 0.55,
    NetworkKind.ACCESS: 0.30,
    NetworkKind.TIER1: 0.60,
}


@dataclass(frozen=True, slots=True)
class TrafficMatrixConfig:
    """Calibration for the per-network rate generator."""

    seed: int = 0
    inbound_total_bps: float = 5.6 * GBPS
    outbound_total_bps: float = 2.7 * GBPS
    bend_rank: int = 20_000
    head_exponent: float = 1.08
    tail_exponent: float = 2.8
    noise_sigma: float = 0.30

    def __post_init__(self) -> None:
        if self.inbound_total_bps <= 0 or self.outbound_total_bps <= 0:
            raise ConfigurationError("traffic totals must be positive")
        if self.bend_rank <= 0:
            raise ConfigurationError("bend rank must be positive")


@dataclass(slots=True)
class TrafficMatrix:
    """Average inbound/outbound rates for every contributing network.

    Arrays are aligned: index ``i`` is the ``i``-th contributing network in
    the owner world's contributing list.
    """

    inbound_bps: np.ndarray
    outbound_bps: np.ndarray

    def __post_init__(self) -> None:
        if self.inbound_bps.shape != self.outbound_bps.shape:
            raise ConfigurationError("inbound/outbound arrays must align")
        if np.any(self.inbound_bps < 0) or np.any(self.outbound_bps < 0):
            raise ConfigurationError("rates cannot be negative")

    @property
    def count(self) -> int:
        """Number of contributing networks."""
        return int(self.inbound_bps.shape[0])

    @property
    def total_bps(self) -> np.ndarray:
        """Combined per-network rate (inbound + outbound)."""
        return self.inbound_bps + self.outbound_bps

    def ranked(self, direction: str) -> np.ndarray:
        """Rates sorted descending — Figure 5a's rank-ordered series."""
        if direction == "inbound":
            values = self.inbound_bps
        elif direction == "outbound":
            values = self.outbound_bps
        else:
            raise ConfigurationError(f"unknown direction {direction!r}")
        return np.sort(values)[::-1]


def rank_profile_totals(
    count: int, config: TrafficMatrixConfig, rng: np.random.Generator
) -> np.ndarray:
    """Rank-ordered per-network totals (largest first), unnormalised."""
    if count <= 0:
        raise ConfigurationError("need at least one contributing network")
    return double_pareto_rates(
        count=count,
        rng=rng,
        top_rate=1.0,
        bend_rank=min(config.bend_rank, count),
        head_exponent=config.head_exponent,
        tail_exponent=config.tail_exponent,
        noise_sigma=config.noise_sigma,
    )


def split_totals_by_kind(
    totals: np.ndarray,
    kinds: list[NetworkKind] | None,
    config: TrafficMatrixConfig,
    rng: np.random.Generator,
    base_share: np.ndarray | None = None,
) -> TrafficMatrix:
    """Split per-network totals into in/out by business type and normalise.

    Content networks originate (inbound to the studied NREN), access
    networks sink (outbound); totals are scaled so each direction matches
    the configured aggregate exactly.

    Callers that already hold the per-network inbound shares as an array
    (the trial-batch world builder assembles them by kind *code*, skipping
    ~30k enum-keyed lookups) pass ``base_share`` instead of ``kinds``; the
    values must equal the ``_INBOUND_SHARE`` gather bit-for-bit, which a
    table built from the same dict guarantees.
    """
    if totals.ndim != 1:
        raise ConfigurationError("totals must be one-dimensional")
    count = int(totals.shape[0])
    if base_share is None:
        if kinds is None or len(kinds) != count:
            raise ConfigurationError("totals must align with kinds")
        base_share = np.array(
            [_INBOUND_SHARE[kind] for kind in kinds], dtype=float
        )
    elif base_share.shape != totals.shape:
        raise ConfigurationError("totals must align with base_share")
    share = np.clip(base_share + rng.normal(0.0, 0.08, size=count), 0.05, 0.95)
    inbound = totals * share
    outbound = totals * (1.0 - share)
    inbound *= config.inbound_total_bps / inbound.sum()
    outbound *= config.outbound_total_bps / outbound.sum()
    return TrafficMatrix(inbound_bps=inbound, outbound_bps=outbound)

