"""The scenario library: named, parameterized study grids as presets.

The ROADMAP's scenario backlog — ``BehaviorRates`` filter stress grids,
exclusion-rule ablations, price-plane economics grids and joint
detection→offload sweeps — lives here as a registry of runnable presets
instead of prose.  A scenario is a name, a description and a grid: a
function from a preset name (``small`` for seconds-scale worlds,
``paper`` for the full-scale ones) to a ``Study`` carrying the variant
grid.  Running one is a ``{"study": "scenario", "config": {"name":
...}}`` request of :mod:`repro.experiments.requests`, which adds the
seeds and engine keys and reports through
:func:`~repro.experiments.requests.render_report`, the same report path
every other front end uses.

The six scenarios:

``behavior-stress``
    :class:`DetectionStudy` over scaled :class:`~repro.sim.
    detection_world.BehaviorRates` — how precision/recall and the
    per-filter discards degrade as the pathological behaviours Nomikos
    et al. observed per-IXP grow from absent to 4× the calibration.
``exclusion-ablation``
    :class:`OffloadStudy` over the Section 4.2 exclusion-rule switches —
    how much offload potential each "highly unlikely to peer" rule
    conservatively forgoes.
``price-plane``
    :class:`EconomicsStudy` over a transit-price × remote-port-price
    grid — the Wang–Xu–Ma-style sweep of the tariff plane rather than a
    single point, sharing one world build per seed across all cells.
``joint``
    :class:`~repro.experiments.joint.JointStudy` — the end-to-end
    detection→offload→billing chain with measured detection errors
    propagated into the peer map.
``failover``
    :class:`~repro.experiments.failover.FailoverStudy` over the
    pseudowire dark-window ``duration_scale`` — how much of the Section 5
    offload savings the 95th-percentile rule claws back as failover
    bursts grow longer (nested windows on a fixed seed, so the billing
    error is monotone along the sweep).
``churned-detection``
    :class:`DetectionStudy` under the full fault schedule — detection
    precision/recall as LG outages, rate-limit storms, port flaps and
    probe-loss bursts scale from absent to 4× the calibrated intensity.

Use :data:`SCENARIOS` / :func:`scenario_names` programmatically,
``repro scenarios list|run <name>`` from the CLI, or a ``{"study":
"scenario", "config": {"name": ...}}`` request over ``repro serve``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.engine import Study
from repro.sim.detection_world import BehaviorRates, DetectionWorldConfig
from repro.sim.offload_world import OffloadWorldConfig
from repro.sim.scenarios import (
    joint_preset_configs,
    mini_specs,
    offload_preset_config,
)

#: Preset names every scenario understands.
PRESETS = ("small", "paper")

#: Stress multipliers of the ``behavior-stress`` grid (1.0 = calibration).
STRESS_FACTORS = (0.0, 0.5, 1.0, 2.0, 4.0)

#: Transit prices (p) of the ``price-plane`` grid.
PRICE_PLANE_TRANSIT = (3.0, 5.0, 8.0)

#: Remote-peering fixed (port) prices (h) of the ``price-plane`` grid.
PRICE_PLANE_PORT = (0.1, 0.25, 0.5)

#: Dark-window duration scales of the ``failover`` sweep (0 = fault-free).
DARK_DURATION_SCALES = (0.0, 0.5, 1.0, 2.0, 4.0)

#: Fault intensities of the ``churned-detection`` sweep (0 = clean).
FAULT_INTENSITIES = (0.0, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True, slots=True)
class Scenario:
    """A named scenario: a description plus its preset → variant grid.

    :meth:`grid` is the one way to a scenario's study, for the request
    registry, the CLI and library callers alike; ``make`` builds it for
    a checked preset.
    """

    name: str
    description: str
    make: Callable[[str], Study]

    def grid(self, preset: str) -> Study:
        """The study of ``preset`` (``small``: seconds-scale worlds,
        ``paper``: the paper-scale ones); any other name raises."""
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r} for scenario {self.name!r} "
                f"(expected one of {', '.join(PRESETS)})"
            )
        return self.make(preset)


def scaled_behavior_rates(factor: float) -> BehaviorRates:
    """The calibrated :class:`BehaviorRates` with every rate scaled.

    The benign ``transient_congestion`` rate is capped at 0.6 so extreme
    stress factors keep a usable share of clean minima instead of
    tripping the rates-sum guard.
    """
    if factor < 0:
        raise ConfigurationError("stress factor cannot be negative")
    base = BehaviorRates()
    return BehaviorRates(
        blackhole=base.blackhole * factor,
        os_change=base.os_change * factor,
        stale=base.stale * factor,
        rare_ttl=base.rare_ttl * factor,
        persistent_congestion=base.persistent_congestion * factor,
        lg_bias=base.lg_bias * factor,
        asn_change=base.asn_change * factor,
        transient_congestion=min(base.transient_congestion * factor, 0.6),
    )


def _offload_world(preset: str) -> OffloadWorldConfig:
    """The offload-world config behind a scenario preset."""
    return offload_preset_config("small" if preset == "small" else "paper65")


def _behavior_stress(preset: str) -> Study:
    from repro.experiments.ensemble import ConfigVariant, DetectionStudy

    specs = mini_specs() if preset == "small" else ()
    return DetectionStudy(variants=tuple(
        ConfigVariant(
            name=f"stress={factor}x",
            world=DetectionWorldConfig(
                specs=specs, rates=scaled_behavior_rates(factor)
            ),
        )
        for factor in STRESS_FACTORS
    ))


def _exclusion_ablation(preset: str) -> Study:
    from repro.experiments.offload import OffloadStudy, OffloadVariant

    base = OffloadVariant(name="all-rules", world=_offload_world(preset))
    return OffloadStudy(variants=(
        base,
        replace(base, name="keep-providers", exclude_transit_providers=False),
        replace(base, name="keep-home-ixps", exclude_home_ixp_members=False),
        replace(base, name="keep-geant", exclude_geant_club=False),
        replace(
            base,
            name="no-exclusions",
            exclude_transit_providers=False,
            exclude_home_ixp_members=False,
            exclude_geant_club=False,
        ),
    ))


def _price_plane(preset: str) -> Study:
    from repro.experiments.economics import (
        EconomicsStudy,
        economics_grid_variants,
    )

    return EconomicsStudy(variants=economics_grid_variants(
        world=_offload_world(preset),
        axes={
            "price.transit_price": PRICE_PLANE_TRANSIT,
            "price.remote_fixed": PRICE_PLANE_PORT,
        },
    ))


def _joint(preset: str) -> Study:
    from repro.experiments.joint import JointStudy, JointVariant

    detection_world, offload_world = joint_preset_configs(preset)
    return JointStudy(variants=(
        JointVariant(
            name=preset,
            detection_world=detection_world,
            offload_world=offload_world,
        ),
    ))


def _failover(preset: str) -> Study:
    from repro.experiments.failover import FailoverStudy, FailoverVariant
    from repro.faults.schedule import FaultConfig

    world = _offload_world(preset)
    return FailoverStudy(variants=tuple(
        FailoverVariant(
            name=f"dark={scale}x",
            world=world,
            faults=FaultConfig(duration_scale=scale)
            if scale > 0
            else FaultConfig(intensity=0.0),
        )
        for scale in DARK_DURATION_SCALES
    ))


def _churned_detection(preset: str) -> Study:
    from repro.core.detection.campaign import CampaignConfig
    from repro.experiments.ensemble import ConfigVariant, DetectionStudy
    from repro.faults.schedule import FaultConfig

    specs = mini_specs() if preset == "small" else ()
    world = DetectionWorldConfig(specs=specs)
    return DetectionStudy(variants=tuple(
        ConfigVariant(
            name=f"faults={intensity}x",
            world=world,
            campaign=CampaignConfig(
                faults=FaultConfig(intensity=intensity)
                if intensity > 0
                else None
            ),
        )
        for intensity in FAULT_INTENSITIES
    ))


#: The registry the CLI and tests enumerate, in presentation order.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="behavior-stress",
            description="BehaviorRates stress grid: detection precision/"
            "recall and per-filter discards from 0x to 4x the calibrated "
            "pathological-behaviour rates",
            make=_behavior_stress,
        ),
        Scenario(
            name="exclusion-ablation",
            description="Section 4.2 exclusion-rule ablation: offload "
            "fractions with each 'unlikely to peer' rule disabled, one "
            "shared world build per seed",
            make=_exclusion_ablation,
        ),
        Scenario(
            name="price-plane",
            description="Transit-price x remote-port-price grid over the "
            "Sections 3+4+5 pipeline: bill savings and the eq. 14 "
            "viability vote across the tariff plane",
            make=_price_plane,
        ),
        Scenario(
            name="joint",
            description="Joint detection->offload study: measured "
            "precision/recall propagated into the peer map, "
            "oracle-vs-detected offload gap and billing error",
            make=_joint,
        ),
        Scenario(
            name="failover",
            description="Pseudowire failover sweep: offload savings vs "
            "dark-window duration scale under 95th-percentile billing, "
            "with the billing error monotone along the sweep per seed",
            make=_failover,
        ),
        Scenario(
            name="churned-detection",
            description="Detection under chaos: precision/recall as LG "
            "outages, rate-limit storms, port flaps and probe-loss "
            "bursts scale from 0x to 4x the calibrated fault intensity",
            make=_churned_detection,
        ),
    )
}


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, in presentation order."""
    return tuple(SCENARIOS)

