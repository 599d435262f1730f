"""The mega-scale offload study: Euro-IX expansion over 10⁵+ networks.

The paper's offload question (Section 4) asked where one NREN should
remote-peer; the mega study asks it at internet scale: given a
:class:`~repro.sim.megatopo.MegaWorld` (CAIDA-style tiered hierarchy,
columnar pool, full Euro-IX catalog), how much of the world's traffic
can a remote peer cover by joining k exchanges, and which k?

Per trial, a traffic vector is drawn for every network from the paper's
double-Pareto rank profile (``(seed, "megastudy", "traffic")`` stream,
aligned so high-propensity networks carry the most traffic), and a
greedy expansion picks IXPs by marginal covered-traffic gain over the
membership bitmasks.  Everything is arrays: the study never materializes
a per-network object, which is what lets a 100k-network trial run in
milliseconds once the world is built.

Worlds are heavyweight (tens of MB of columns at 100k, hundreds at 1M)
while trials are light — exactly the regime the shared-memory transport
exists for.  :class:`MegaStudy` implements the engine's
``export_world`` / ``attach_world`` hooks, so
``StudyConfig(transport="shm")`` dispatches each trial with a segment
descriptor instead of a pickled world (see
:mod:`repro.experiments.transport`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from repro.core.offload.bitsets import greedy_cover_rows
from repro.errors import ConfigurationError
from repro.rand import child_rng, double_pareto_rates
from repro.sim.megatopo import MegaWorld, MegaWorldConfig, build_mega_world


@dataclass(frozen=True, slots=True)
class MegaVariant:
    """One cell of the mega grid: world shape + expansion depth."""

    name: str = "base"
    world: MegaWorldConfig = MegaWorldConfig()
    max_ixps: int = 8
    #: Rank where the traffic profile bends toward faster decay
    #: (Figure 5a's observed bend, rescaled to the world).
    traffic_bend_rank: int = 20_000

    def __post_init__(self) -> None:
        if self.max_ixps < 1:
            raise ConfigurationError("max_ixps must be at least 1")
        if self.traffic_bend_rank < 1:
            raise ConfigurationError("traffic_bend_rank must be positive")


@dataclass(frozen=True, slots=True)
class MegaTrialSpec:
    """One fully-resolved mega trial (picklable)."""

    trial_id: int
    variant: str
    seed: int
    world: MegaWorldConfig
    max_ixps: int
    traffic_bend_rank: int


@dataclass(frozen=True, slots=True)
class MegaTrialResult:
    """Per-trial coverage metrics of one greedy Euro-IX expansion."""

    trial_id: int
    variant: str
    seed: int
    network_count: int
    member_total: int          # memberships across the catalog
    expansion: tuple[str, ...]  # greedy IXP order, best first
    covered_fraction: float    # traffic share covered at max_ixps
    covered_networks: int      # distinct member networks covered
    five_ixp_share: float      # share of the expansion's gain from 5 IXPs


def draw_traffic(world: MegaWorld, seed: int, bend_rank: int) -> np.ndarray:
    """Per-network traffic rates for one trial seed.

    The double-Pareto rank profile of the paper's Figure 5a, assigned in
    propensity order — the networks that join the most IXPs are also the
    ones exchanging the most traffic — with per-seed log-normal noise
    from the dedicated ``(seed, "megastudy", "traffic")`` stream.
    """
    n = len(world)
    rng = child_rng(seed, "megastudy", "traffic")
    rates = double_pareto_rates(
        count=n,
        rng=rng,
        top_rate=1.0,
        bend_rank=min(bend_rank, n),
        head_exponent=0.8,
        tail_exponent=1.6,
    )
    traffic = np.empty(n, dtype=float)
    traffic[world.propensity_order] = rates
    return traffic


def greedy_coverage(
    world: MegaWorld, traffic: np.ndarray, max_ixps: int
) -> tuple[list[int], list[float]]:
    """Greedy IXP picks by marginal covered-traffic gain.

    Coverage is membership-level (peering at an exchange reaches the
    members' own prefixes; the cone-propagated mask saturates at mega
    densities — see ``MegaWorld.membership_masks``).  The picks come from
    the offload estimators' set-cover kernel
    (:func:`~repro.core.offload.bitsets.greedy_cover_rows`) over the
    membership CSR: exact float64 gains, ties to the lower catalog index,
    so the expansion is deterministic.  Each pick's reported gain is the
    traffic of its members not yet covered, and the expansion stops
    before the first pick that adds none.
    Returns ``(picked ixp indices, marginal gains)``.
    """
    covered = np.zeros(len(world), dtype=bool)
    picked: list[int] = []
    gains: list[float] = []
    for _, j, _ in greedy_cover_rows(
        world.member_indptr, world.member_indices, traffic,
        min(max_ixps, world.ixp_count),
    ):
        m = world.members_of(j)
        gain = float(traffic[m[~covered[m]]].sum())
        if gain <= 0.0:
            break
        picked.append(j)
        gains.append(gain)
        covered[m] = True
    return picked, gains


def measure_mega_trial(
    spec: MegaTrialSpec, world: MegaWorld
) -> MegaTrialResult:
    """Run one trial against a built (or attached) mega world."""
    traffic = draw_traffic(world, spec.seed, spec.traffic_bend_rank)
    total = float(traffic.sum())
    picked, gains = greedy_coverage(world, traffic, spec.max_ixps)
    covered = np.zeros(len(world), dtype=bool)
    for j in picked:
        covered[world.members_of(j)] = True
    gain_total = sum(gains)
    five_share = (
        sum(gains[:5]) / gain_total if gain_total > 0 else 0.0
    )
    return MegaTrialResult(
        trial_id=spec.trial_id,
        variant=spec.variant,
        seed=spec.seed,
        network_count=len(world),
        member_total=int(world.member_counts.sum()),
        expansion=tuple(world.catalog[j].acronym for j in picked),
        covered_fraction=gain_total / total if total > 0 else 0.0,
        covered_networks=int(covered.sum()),
        five_ixp_share=five_share,
    )


@dataclass(frozen=True, slots=True)
class MegaStudy:
    """The mega expansion as a :class:`repro.experiments.engine.Study`.

    Implements the zero-copy transport hooks: ``export_world`` hands the
    engine the world's array columns (plus the world config as metadata),
    ``attach_world`` rebuilds a view-backed world inside the worker.
    """

    variants: tuple[MegaVariant, ...] = (MegaVariant(),)

    name = "mega"

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigurationError("a study needs at least one variant")
        if len({v.name for v in self.variants}) != len(self.variants):
            raise ConfigurationError("variant names must be distinct")

    def variant_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variants)

    def resolve(self, variant: str, seed: int, trial_id: int) -> MegaTrialSpec:
        v = next(v for v in self.variants if v.name == variant)
        return MegaTrialSpec(
            trial_id=trial_id,
            variant=variant,
            seed=seed,
            world=replace(v.world, seed=seed),
            max_ixps=v.max_ixps,
            traffic_bend_rank=v.traffic_bend_rank,
        )

    def world_key(self, spec: MegaTrialSpec) -> MegaWorldConfig:
        # Variants sweeping expansion depth share one world build per seed.
        return spec.world

    def build(self, spec: MegaTrialSpec) -> MegaWorld:
        return build_mega_world(spec.world)

    def measure(
        self, spec: MegaTrialSpec, world: MegaWorld
    ) -> MegaTrialResult:
        return measure_mega_trial(spec, world)

    # --- zero-copy transport hooks -------------------------------------------

    def export_world(
        self, world: MegaWorld
    ) -> tuple[MegaWorldConfig, dict[str, np.ndarray]]:
        """(metadata, columns) for the shared-memory transport."""
        return world.config, world.export_columns()

    def attach_world(
        self, meta: MegaWorldConfig, columns: dict[str, np.ndarray]
    ) -> MegaWorld:
        """Rebuild a world over attached shared-memory views (zero-copy)."""
        return MegaWorld.from_columns(meta, columns)

    def metrics(self, result: MegaTrialResult) -> dict[str, float]:
        return {
            "covered_fraction": result.covered_fraction,
            "five_ixp_share": result.five_ixp_share,
            "covered_networks": float(result.covered_networks),
        }

    def encode(self, result: MegaTrialResult) -> dict[str, Any]:
        return asdict(result)

    def decode(self, payload: dict[str, Any]) -> MegaTrialResult:
        payload = dict(payload)
        payload["expansion"] = tuple(payload["expansion"])
        return MegaTrialResult(**payload)
