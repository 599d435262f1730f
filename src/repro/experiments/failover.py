"""The failover study: offload savings eroded by pseudowire dark windows.

Section 5 prices offload under 95th-percentile billing assuming the
remote peering circuits stay up; the paper's risk argument (Section 2)
is that a remote peer is one pseudowire away from falling back to
transit.  A failover trial quantifies that risk for one seed's offload
world:

1. build the offload world, pick the greedy expansion's IXP order, and
   split the offloaded traffic into *disjoint prefix components* — the
   networks each IXP adds beyond its predecessors in the greedy order;
2. draw per-IXP pseudowire dark windows from the dedicated
   ``(seed, "faults", "pseudowire-dark", ixp)`` streams (counts Poisson
   in the fault intensity, durations stretched by ``duration_scale``
   *after* drawing, so scale sweeps on one seed are nested);
3. while an IXP's pseudowire is dark, its component's traffic returns to
   transit — the fallback series is the sum of component series weighted
   by each bin's dark-overlap fraction;
4. bill the month three ways (no offload / fault-free offload / offload
   with fallback bursts) under the 95th-percentile rule.

Because every component series shares one seed, series are *exactly*
additive across disjoint components, so fallback ≤ offload ≤ transit
holds bin-for-bin by construction — and on a fixed seed the billing
error is monotone non-decreasing in ``duration_scale`` (nested dark
windows can only raise the realized percentile).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.offload import ALL_GROUPS, OffloadEstimator, PeerGroups, greedy_expansion
from repro.errors import ConfigurationError
from repro.experiments.engine import Trial, VariantStudy
from repro.faults.schedule import (
    PSEUDOWIRE_DARK,
    FaultConfig,
    draw_windows,
    window_overlap_fractions,
)
from repro.netflow.billing import failover_billing_report
from repro.rand import child_rng, derive_seed
from repro.sim.offload_world import (
    OffloadWorld,
    OffloadWorldConfig,
    build_offload_world,
)
from repro.types import TrafficDirection
from repro.units import DAY, FIVE_MINUTES


@dataclass(frozen=True, slots=True)
class FailoverVariant:
    """One named cell of the failover grid: a world plus fault knobs."""

    name: str
    world: OffloadWorldConfig = OffloadWorldConfig()
    faults: FaultConfig = FaultConfig()
    group: int = 4
    max_ixps: int = 8
    price_per_mbps: float = 1.0
    percentile: float = 95.0

    def __post_init__(self) -> None:
        if self.group not in ALL_GROUPS:
            raise ConfigurationError(f"unknown peer group {self.group}")
        if self.max_ixps <= 0:
            raise ConfigurationError("max_ixps must be positive")
        if not 0 < self.percentile <= 100:
            raise ConfigurationError("percentile must be in (0, 100]")
        if self.price_per_mbps < 0:
            raise ConfigurationError("price_per_mbps cannot be negative")


@dataclass(frozen=True, slots=True)
class FailoverTrialSpec:
    """One fully-resolved trial: picklable input of the study's measure."""

    trial_id: int
    variant: str
    seed: int
    world: OffloadWorldConfig
    faults: FaultConfig
    group: int
    max_ixps: int
    price_per_mbps: float
    percentile: float


def measure_failover_trial(
    spec: FailoverTrialSpec, world: OffloadWorld
) -> Trial:
    """Sections 4 → 2.1 with dark windows, against a built offload world."""
    groups = PeerGroups.build(world)
    estimator = OffloadEstimator(world, groups)
    steps = greedy_expansion(estimator, spec.group, max_ixps=spec.max_ixps)
    ixps = [step.ixp for step in steps if step.gained_total_bps > 0]

    collector = world.collector
    bins = collector.bins()
    span_s = collector.days * DAY

    # Disjoint prefix components: the networks each IXP adds beyond its
    # greedy predecessors.  Their union is the full offload mask, and with
    # one shared series seed the component series sum *exactly* to the
    # offload series (aggregate_series is linear in the masked rate sum).
    series_seed = derive_seed(spec.seed, "failover", "series")

    def series_of(mask: np.ndarray) -> np.ndarray:
        if not mask.any():
            return np.zeros(bins)
        total = np.zeros(bins)
        for direction in (TrafficDirection.INBOUND, TrafficDirection.OUTBOUND):
            total = total + collector.aggregate_series(
                direction, mask=mask, seed=series_seed
            )
        return total

    transit_series = series_of(
        np.ones(len(world.contributing), dtype=bool)
    )
    offload_mask = estimator.mask_for(ixps, spec.group)
    offload_series = series_of(offload_mask)

    fallback_series = np.zeros(bins)
    dark_window_count = 0
    dark_time = 0.0
    covered = np.zeros(len(world.contributing), dtype=bool)
    for acronym in ixps:
        prefix_mask = estimator.mask_for([acronym], spec.group) & ~covered
        covered |= prefix_mask
        edges = draw_windows(
            child_rng(spec.seed, "faults", PSEUDOWIRE_DARK, acronym),
            spec.faults.dark_rate, spec.faults.dark_mean_s, span_s,
            spec.faults.intensity, spec.faults.duration_scale,
        )
        dark_window_count += edges.size // 2
        dark_time += float((edges[1::2] - edges[0::2]).sum())
        if edges.size == 0 or not prefix_mask.any():
            continue
        dark_frac = window_overlap_fractions(edges, bins, FIVE_MINUTES)
        fallback_series = fallback_series + series_of(prefix_mask) * dark_frac

    inbound, outbound = estimator.offload_fractions(ixps, spec.group)
    report = failover_billing_report(
        transit_series, offload_series, fallback_series,
        price_per_mbps=spec.price_per_mbps, percentile=spec.percentile,
    )
    return Trial(spec.trial_id, spec.variant, spec.seed, {
        "ixp_count": len(ixps),  # IXPs the greedy expansion reached
        # Merged dark windows across those IXPs, and their dark IXP-time
        # over (IXPs x month).
        "dark_window_count": dark_window_count,
        "dark_time_fraction": (
            dark_time / (len(ixps) * span_s) if ixps else 0.0
        ),
        "inbound_fraction": inbound,  # fault-free offload fractions
        "outbound_fraction": outbound,
        "before_bill": report.before_bill,
        # Savings fault-free and after failover bursts, and the extra
        # monthly charge the bursts cost.
        "ideal_savings_fraction": report.ideal_savings_fraction,
        "realized_savings_fraction": report.realized_savings_fraction,
        "burst_penalty": report.burst_penalty,
    })


@dataclass(frozen=True, slots=True)
class FailoverStudy(VariantStudy):
    """The failover ensemble as a :class:`repro.experiments.engine.Study`."""

    variants: tuple[FailoverVariant, ...] = (FailoverVariant(name="base"),)

    name = "failover"
    trial_fields = (
        "ixp_count", "dark_window_count", "dark_time_fraction",
        "inbound_fraction", "outbound_fraction", "before_bill",
        "ideal_savings_fraction", "realized_savings_fraction",
        "burst_penalty",
    )

    def resolve(
        self, variant: str, seed: int, trial_id: int
    ) -> FailoverTrialSpec:
        v = self.variant(variant)
        return FailoverTrialSpec(
            trial_id=trial_id,
            variant=variant,
            seed=seed,
            world=replace(v.world, seed=seed),
            faults=v.faults,
            group=v.group,
            max_ixps=v.max_ixps,
            price_per_mbps=v.price_per_mbps,
            percentile=v.percentile,
        )

    def world_key(self, spec: FailoverTrialSpec):
        # Variants sweeping fault knobs (intensity, duration scale) share
        # one world build per seed — the chaos lives outside the world.
        return spec.world

    def build(self, spec: FailoverTrialSpec) -> OffloadWorld:
        return build_offload_world(spec.world)

    def measure(self, spec: FailoverTrialSpec, world: OffloadWorld) -> Trial:
        return measure_failover_trial(spec, world)

    def metrics(self, result: Trial) -> dict[str, float]:
        values = result.values
        return {
            # Averaged over the two directions.
            "offload_fraction": 0.5 * (values["inbound_fraction"]
                                       + values["outbound_fraction"]),
            "ideal_savings": values["ideal_savings_fraction"],
            "realized_savings": values["realized_savings_fraction"],
            # Savings lost to failover bursts (>= 0 by construction).
            "billing_error": values["ideal_savings_fraction"]
            - values["realized_savings_fraction"],
            "dark_fraction": values["dark_time_fraction"],
            "ixp_count": float(values["ixp_count"]),
            "dark_windows": float(values["dark_window_count"]),
            "before_bill": values["before_bill"],
            "burst_penalty": values["burst_penalty"],
        }

