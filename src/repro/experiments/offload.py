"""Multi-seed, multi-configuration *offload* studies (Section 4 at scale).

Mirrors :mod:`repro.experiments.ensemble` for the offload study: a trial
builds one offload world under a (seed, variant) pair, applies the peer-
group exclusions, and measures the maximum offload fractions plus the
greedy IXP expansion.  :class:`OffloadStudy` expresses that as the study
engine's ``build → run → measure`` contract (scheduling, world sharing
across same-seed variants, resume artifacts and parallelism come from
:mod:`repro.experiments.engine`); the aggregates are mean ± 95% CI
offload fractions and an expansion-order consensus per variant.  This is the many-seed sensitivity study the
uncovering-remote-peering and peering-economics follow-ups both need —
"how stable is the ~30% offload ceiling and the AMS-IX-first ordering
across worlds?" — and it only became affordable with the vectorized
offload world builder and the bitset-matrix estimator.

Usage::

    from repro.experiments import (
        OffloadStudy, OffloadVariant, StudyConfig, render_report, run_study,
    )
    study = OffloadStudy(
        variants=(OffloadVariant(name="paper65"),),  # full-scale preset
    )
    result = run_study(study, StudyConfig(seeds=tuple(range(16))))
    print(render_report(study, result))

Grids sweep any :class:`OffloadWorldConfig` field via dotted
``world.<field>`` axes (:func:`offload_grid_variants`), plus the peer
``group`` of the study itself.  The CLI front end is
``repro study offload`` (see :mod:`repro.experiments.requests`).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence

from repro.core.offload import (
    ALL_GROUPS,
    OffloadEstimator,
    PeerGroups,
    greedy_expansion,
)
from repro.errors import ConfigurationError
from repro.sim.offload_world import (
    OffloadWorld,
    OffloadWorldConfig,
    build_offload_world,
)


@dataclass(frozen=True, slots=True)
class OffloadVariant:
    """One named cell of the offload configuration grid.

    The three ``exclude_*`` switches mirror the Section 4.2 exclusion
    rules of :meth:`repro.core.offload.PeerGroups.build`; disabling one
    runs the ablation the paper only argues in prose — how much offload
    potential that rule conservatively forgoes (the ``exclusion-ablation``
    scenario sweeps them).
    """

    name: str
    world: OffloadWorldConfig = OffloadWorldConfig()
    group: int = 4
    max_ixps: int = 8
    exclude_transit_providers: bool = True
    exclude_home_ixp_members: bool = True
    exclude_geant_club: bool = True

    def __post_init__(self) -> None:
        if self.group not in ALL_GROUPS:
            raise ConfigurationError(f"unknown peer group {self.group}")
        if self.max_ixps <= 0:
            raise ConfigurationError("max_ixps must be positive")


def offload_grid_variants(
    world: OffloadWorldConfig | None = None,
    axes: Mapping[str, Sequence] | None = None,
    groups: Sequence[int] = (4,),
    max_ixps: int = 8,
) -> tuple[OffloadVariant, ...]:
    """Cartesian product of ``world.<field>`` axes × peer groups.

    ``axes`` maps dotted paths (``"world.<field>"`` over
    :class:`OffloadWorldConfig`) to value sequences; ``groups`` adds the
    peer group as an outer axis.  Variant names join the swept assignments
    (``member_tier2_fraction=0.4|group=4`` style).
    """
    world = world or OffloadWorldConfig()
    axes = dict(axes or {})
    world_fields = {f.name for f in fields(OffloadWorldConfig)}
    for path in axes:
        scope, _, fname = path.partition(".")
        if scope != "world" or fname not in world_fields:
            raise ConfigurationError(
                f"grid axis {path!r} must be world.<field> naming an "
                "existing OffloadWorldConfig field"
            )
        if fname == "seed":
            raise ConfigurationError(
                f"grid axis {path!r} is not sweepable: trial seeds come "
                "from StudyConfig.seeds"
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
        parts = []
        for path, value in zip(paths, combo):
            fname = path.partition(".")[2]
            w = replace(w, **{fname: value})
            parts.append(f"{fname}={value}")
        for group in groups:
            name_parts = [*parts]
            if len(groups) > 1 or not parts:
                name_parts.append(f"group={group}")
            variants.append(
                OffloadVariant(
                    name="|".join(name_parts) or "base",
                    world=w,
                    group=group,
                    max_ixps=max_ixps,
                )
            )
    return tuple(variants)


@dataclass(frozen=True, slots=True)
class OffloadTrialSpec:
    """One fully-resolved trial: picklable input of the study's measure."""

    trial_id: int
    variant: str
    seed: int
    world: OffloadWorldConfig
    group: int
    max_ixps: int
    exclude_transit_providers: bool = True
    exclude_home_ixp_members: bool = True
    exclude_geant_club: bool = True


@dataclass(frozen=True, slots=True)
class OffloadTrialResult:
    """Per-trial offload metrics (picklable output of the study's measure)."""

    trial_id: int
    variant: str
    seed: int
    candidate_count: int
    offloadable_networks: int
    inbound_fraction: float   # max offload, all IXPs reached
    outbound_fraction: float
    expansion: tuple[str, ...]  # greedy order, best first
    five_ixp_share: float     # share of the expansion's gain from 5 IXPs


def measure_offload_trial(
    spec: OffloadTrialSpec, world: OffloadWorld
) -> OffloadTrialResult:
    """Measure one trial against an already-built world.

    Peer groups and the estimator are rebuilt per trial (they depend on
    the exclusion rules, not only the world), but worlds themselves are
    deterministic read-only inputs the engine shares across the variants
    of one seed.
    """
    groups = PeerGroups.build(
        world,
        exclude_transit_providers=spec.exclude_transit_providers,
        exclude_home_ixp_members=spec.exclude_home_ixp_members,
        exclude_geant_club=spec.exclude_geant_club,
    )
    estimator = OffloadEstimator(world, groups)
    all_ixps = estimator.reachable_ixps()
    inbound, outbound = estimator.offload_fractions(all_ixps, spec.group)
    steps = greedy_expansion(estimator, spec.group, max_ixps=spec.max_ixps)
    gains = [s.gained_total_bps for s in steps]
    total_gain = sum(gains)
    five_share = sum(gains[:5]) / total_gain if total_gain > 0 else 0.0
    return OffloadTrialResult(
        trial_id=spec.trial_id,
        variant=spec.variant,
        seed=spec.seed,
        candidate_count=estimator.groups.candidate_count(),
        offloadable_networks=estimator.offloadable_network_count(
            all_ixps, spec.group
        ),
        inbound_fraction=inbound,
        outbound_fraction=outbound,
        expansion=tuple(s.ixp for s in steps),
        five_ixp_share=five_share,
    )


@dataclass(frozen=True, slots=True)
class OffloadStudy:
    """The offload ensemble as a :class:`repro.experiments.engine.Study`."""

    variants: tuple[OffloadVariant, ...] = (OffloadVariant(name="base"),)

    name = "offload"

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigurationError("a study needs at least one variant")
        if len({v.name for v in self.variants}) != len(self.variants):
            raise ConfigurationError("variant names must be distinct")

    def variant_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variants)

    def resolve(
        self, variant: str, seed: int, trial_id: int
    ) -> OffloadTrialSpec:
        v = next(v for v in self.variants if v.name == variant)
        return OffloadTrialSpec(
            trial_id=trial_id,
            variant=variant,
            seed=seed,
            world=replace(v.world, seed=seed),
            group=v.group,
            max_ixps=v.max_ixps,
            exclude_transit_providers=v.exclude_transit_providers,
            exclude_home_ixp_members=v.exclude_home_ixp_members,
            exclude_geant_club=v.exclude_geant_club,
        )

    def world_key(self, spec: OffloadTrialSpec) -> OffloadWorldConfig:
        # Variants sweeping the peer group (or expansion depth) share one
        # world build per seed.
        return spec.world

    def build(self, spec: OffloadTrialSpec) -> OffloadWorld:
        return build_offload_world(spec.world)

    def measure(
        self, spec: OffloadTrialSpec, world: OffloadWorld
    ) -> OffloadTrialResult:
        return measure_offload_trial(spec, world)

    def metrics(self, result: OffloadTrialResult) -> dict[str, float]:
        return {
            "inbound_fraction": result.inbound_fraction,
            "outbound_fraction": result.outbound_fraction,
            "offloadable_networks": float(result.offloadable_networks),
            "candidates": float(result.candidate_count),
            "five_ixp_share": result.five_ixp_share,
        }

    def encode(self, result: OffloadTrialResult) -> dict:
        return asdict(result)

    def decode(self, payload: dict) -> OffloadTrialResult:
        payload = dict(payload)
        payload["expansion"] = tuple(payload["expansion"])
        return OffloadTrialResult(**payload)

