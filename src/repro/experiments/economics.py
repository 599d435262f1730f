"""The end-to-end economics ensemble: Sections 3+4+5 in one study.

Each trial runs the full measured-economics pipeline of the paper under
one (seed, variant) pair:

1. build the offload world and apply the Section 4.2 exclusion rules
   (:class:`~repro.core.offload.PeerGroups` → ``OffloadEstimator``);
2. measure Figure 9's remaining-transit curve
   (:func:`~repro.core.offload.remaining_traffic_series`) and fit the
   equation 3 decay rate ``b`` from it;
3. synthesise the month of 5-minute NetFlow series (transit and its
   offloadable share, peaks coinciding as in Figure 5b) and bill both
   under Section 2.1's 95th-percentile scheme
   (:func:`~repro.netflow.billing.offload_billing_report`);
4. evaluate the Section 5 cost model at the *measured* decay — the
   closed-form optima (eq. 11/13) and the equation 14 viability verdict.

The ensemble then reports mean ± 95% CI transit-bill savings fractions
and a viability *vote* across seeds — treating peering economics as a
distribution over scenarios rather than a point estimate, the way the
paid-peering literature (Wang–Xu–Ma 2018; Nikkhah–Jordan 2023) frames it.

The billing series decompose transit into its offloadable and
non-offloadable components, each carried by the same diurnal/weekly shape
with independent per-bin noise; the offloadable share therefore never
exceeds transit bin-for-bin, and the percentile savings track — but do
not exactly equal — the average offload share.

The CLI front end is ``repro study economics`` (see
:mod:`repro.experiments.requests`); ``examples/economics_study.py`` is a
worked example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from repro.core.economics import (
    CostModel,
    CostParameters,
    fit_exponential_decay,
    viability_condition,
)
from repro.core.offload import (
    ALL_GROUPS,
    OffloadEstimator,
    PeerGroups,
    remaining_traffic_series,
)
from repro.errors import ConfigurationError
from repro.experiments.engine import Trial, VariantStudy
from repro.netflow.billing import offload_billing_report
from repro.netflow.timeseries import DiurnalProfile
from repro.rand import derive_seed
from repro.sim.offload_world import (
    OffloadWorld,
    OffloadWorldConfig,
    build_offload_views,
)
from repro.types import TrafficDirection


@dataclass(frozen=True, slots=True)
class EconomicsVariant:
    """One named cell of the economics grid.

    Price defaults follow the repo's Section 5 baseline (the defaults of
    ``repro econ``): transit at p=5 per unit, direct peering g=1 fixed /
    u=0.5 per unit, remote peering h=0.25 fixed / v=1.5 per unit.  The
    decay rate ``b`` is never configured — it is fitted per trial from
    the measured offload curve.
    """

    name: str
    world: OffloadWorldConfig = OffloadWorldConfig()
    group: int = 4
    max_ixps: int = 20          # depth of the fitted remaining-series
    transit_price: float = 5.0  # p
    direct_fixed: float = 1.0   # g
    direct_unit: float = 0.5    # u
    remote_fixed: float = 0.25  # h
    remote_unit: float = 1.5    # v
    price_per_mbps: float = 1.0  # billing price for the NetFlow bill
    percentile: float = 95.0

    def __post_init__(self) -> None:
        if self.group not in ALL_GROUPS:
            raise ConfigurationError(f"unknown peer group {self.group}")
        if self.max_ixps < 2:
            raise ConfigurationError(
                "max_ixps must be at least 2 (the decay fit needs 3 points)"
            )
        if not 0 < self.percentile <= 100:
            raise ConfigurationError("percentile must be in (0, 100]")
        if self.price_per_mbps < 0:
            raise ConfigurationError("price_per_mbps cannot be negative")
        # Validate the price structure early (u < v < p, h < g) by
        # building a throwaway parameter set at a nominal decay.
        CostParameters(
            p=self.transit_price, g=self.direct_fixed, u=self.direct_unit,
            h=self.remote_fixed, v=self.remote_unit, b=0.5,
        )


#: :class:`EconomicsVariant` fields sweepable via ``price.<field>`` axes —
#: the Section 5 tariff plane plus the billing knobs.  The fit depth
#: (``max_ixps``) is deliberately not a price axis; pass it as a keyword.
_PRICE_FIELDS = frozenset({
    "transit_price", "direct_fixed", "direct_unit", "remote_fixed",
    "remote_unit", "price_per_mbps", "percentile",
})


def economics_grid_variants(
    world: OffloadWorldConfig | None = None,
    axes: Mapping[str, Sequence] | None = None,
    groups: Sequence[int] = (4,),
    **variant_kwargs,
) -> tuple[EconomicsVariant, ...]:
    """Cartesian product of ``world.<field>`` / ``price.<field>`` axes × groups.

    Mirrors :func:`repro.experiments.offload.offload_grid_variants`, with
    one extra scope: ``price.<field>`` sweeps the variant's own tariff
    knobs (``transit_price``, ``remote_fixed``, ...), which is how the
    ``price-plane`` scenario walks the Wang–Xu–Ma-style price plane over
    one shared world build per seed.  ``variant_kwargs`` (prices, depth,
    percentile) apply to every cell not overridden by an axis.
    """
    world = world or OffloadWorldConfig()
    axes = dict(axes or {})
    world_fields = {f.name for f in fields(OffloadWorldConfig)}
    for path in axes:
        scope, _, fname = path.partition(".")
        if scope == "world" and fname in world_fields:
            if fname == "seed":
                raise ConfigurationError(
                    f"grid axis {path!r} is not sweepable: trial seeds come "
                    "from StudyConfig.seeds"
                )
        elif scope == "price" and fname in _PRICE_FIELDS:
            if fname in variant_kwargs:
                raise ConfigurationError(
                    f"grid axis {path!r} conflicts with the fixed "
                    f"{fname}={variant_kwargs[fname]!r} keyword"
                )
        else:
            raise ConfigurationError(
                f"grid axis {path!r} must be world.<field> naming an "
                "OffloadWorldConfig field or price.<field> naming a "
                "sweepable EconomicsVariant field"
            )
    if not groups:
        raise ConfigurationError("need at least one peer group")
    for group in groups:
        if group not in ALL_GROUPS:
            raise ConfigurationError(f"unknown peer group {group}")
    paths = list(axes)
    variants = []
    for combo in itertools.product(*(axes[p] for p in paths)):
        w = world
        cell_kwargs = dict(variant_kwargs)
        parts = []
        for path, value in zip(paths, combo):
            scope, _, fname = path.partition(".")
            if scope == "world":
                w = replace(w, **{fname: value})
            else:  # price
                cell_kwargs[fname] = value
            parts.append(f"{fname}={value}")
        for group in groups:
            name_parts = [*parts]
            if len(groups) > 1 or not parts:
                name_parts.append(f"group={group}")
            variants.append(
                EconomicsVariant(
                    name="|".join(name_parts) or "base",
                    world=w,
                    group=group,
                    **cell_kwargs,
                )
            )
    return tuple(variants)


@dataclass(frozen=True, slots=True)
class EconomicsTrialSpec:
    """One fully-resolved trial: picklable input of the study's measure."""

    trial_id: int
    variant: str
    seed: int
    world: OffloadWorldConfig
    group: int
    max_ixps: int
    transit_price: float
    direct_fixed: float
    direct_unit: float
    remote_fixed: float
    remote_unit: float
    price_per_mbps: float
    percentile: float


def measure_economics_trial(
    spec: EconomicsTrialSpec, world: OffloadWorld
) -> Trial:
    """Sections 4 → 2.1 → 5 against an already-built world."""
    estimator = OffloadEstimator(world, PeerGroups.build(world))
    # The all-IXP offload mask, built once: its rates give the maximum
    # offload fractions and the offloadable billing component below.
    mask = estimator.mask_for(estimator.reachable_ixps(), spec.group)
    collector = world.collector
    offloaded = {
        direction: collector.aggregate_rate(direction, mask)
        for direction in TrafficDirection
    }
    inbound, outbound = (
        offloaded[direction] / collector.aggregate_rate(direction)
        for direction in TrafficDirection
    )

    series = np.array(
        remaining_traffic_series(estimator, spec.group, max_ixps=spec.max_ixps)
    )
    fit = fit_exponential_decay(series)

    # Month of 5-minute bins: transit = offloadable + non-offloadable
    # components, same diurnal shape, independent per-bin noise — so the
    # offloadable share never exceeds transit and peaks coincide (Fig 5b).
    # Each component's diurnal shape is drawn once and scaled by each
    # direction's average rate.
    profile = DiurnalProfile()
    offload_shape = profile.series(
        collector.days,
        seed=derive_seed(spec.seed, "economics", "offload-series"),
    )
    remaining_shape = profile.series(
        collector.days,
        seed=derive_seed(spec.seed, "economics", "remaining-series"),
    )
    offload_series = np.zeros(collector.bins())
    remaining_series = np.zeros(collector.bins())
    for direction in TrafficDirection:
        offload_series = offload_series + offloaded[direction] * offload_shape
        remaining_series = remaining_series + (
            collector.aggregate_rate(direction, ~mask) * remaining_shape
        )
    transit_series = offload_series + remaining_series
    billing = offload_billing_report(
        transit_series, offload_series,
        price_per_mbps=spec.price_per_mbps, percentile=spec.percentile,
    )

    params = CostParameters(
        p=spec.transit_price, g=spec.direct_fixed, u=spec.direct_unit,
        h=spec.remote_fixed, v=spec.remote_unit, b=fit.rate,
    )
    model = CostModel(params)
    verdict = viability_condition(params)
    return Trial(spec.trial_id, spec.variant, spec.seed, {
        "candidate_count": estimator.groups.candidate_count(),
        "inbound_fraction": inbound,  # max offload, all IXPs reached
        "outbound_fraction": outbound,
        "decay_rate": fit.rate,  # fitted b (eq. 3)
        "decay_floor": fit.floor,
        "fit_sse": fit.sse,
        # The monthly 95th-percentile transit bill, before and after the
        # offloadable share is removed.
        "before_bill": billing.before_bill,
        "after_bill": billing.after_bill,
        "savings_fraction": billing.savings_fraction,
        "viable": verdict.viable,  # eq. 14 verdict at the measured b
        "viability_ratio": verdict.ratio,  # g(p-v)/(h(p-u))
        "viability_threshold": verdict.threshold,  # e^b
        "optimal_direct_ixps": model.optimal_direct(),  # ñ (eq. 11)
        "optimal_remote_ixps": verdict.optimal_remote_ixps,  # m̃ (eq. 13)
    })


@dataclass(frozen=True, slots=True)
class EconomicsStudy(VariantStudy):
    """The economics ensemble as a :class:`repro.experiments.engine.Study`."""

    variants: tuple[EconomicsVariant, ...] = (EconomicsVariant(name="base"),)

    name = "economics"
    trial_fields = (
        "candidate_count", "inbound_fraction", "outbound_fraction",
        "decay_rate", "decay_floor", "fit_sse", "before_bill", "after_bill",
        "savings_fraction", "viable", "viability_ratio",
        "viability_threshold", "optimal_direct_ixps", "optimal_remote_ixps",
    )

    def resolve(
        self, variant: str, seed: int, trial_id: int
    ) -> EconomicsTrialSpec:
        v = self.variant(variant)
        return EconomicsTrialSpec(
            trial_id=trial_id,
            variant=variant,
            seed=seed,
            world=replace(v.world, seed=seed),
            group=v.group,
            max_ixps=v.max_ixps,
            transit_price=v.transit_price,
            direct_fixed=v.direct_fixed,
            direct_unit=v.direct_unit,
            remote_fixed=v.remote_fixed,
            remote_unit=v.remote_unit,
            price_per_mbps=v.price_per_mbps,
            percentile=v.percentile,
        )

    def world_key(self, spec: EconomicsTrialSpec) -> OffloadWorldConfig:
        # Price/group grids over the same world config share one build
        # per seed — the whole point of sweeping economics cheaply.
        return spec.world

    def build(self, spec: EconomicsTrialSpec) -> OffloadWorld:
        # ``build_offload_views`` looked up in this module is the name
        # the benchmark's layer trace wraps (perfbench/layers.py).
        return build_offload_views([spec.world])[0]

    def measure(self, spec: EconomicsTrialSpec, world: OffloadWorld) -> Trial:
        return measure_economics_trial(spec, world)

    def metrics(self, result: Trial) -> dict[str, float]:
        values = result.values
        return {
            "savings_fraction": values["savings_fraction"],
            "decay_rate": values["decay_rate"],
            "viable": 1.0 if values["viable"] else 0.0,
            "before_bill": values["before_bill"],
            "after_bill": values["after_bill"],
            "inbound_fraction": values["inbound_fraction"],
            "outbound_fraction": values["outbound_fraction"],
            "optimal_direct_ixps": values["optimal_direct_ixps"],
            "optimal_remote_ixps": values["optimal_remote_ixps"],
        }

