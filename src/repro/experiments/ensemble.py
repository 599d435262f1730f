"""The Section 3 detection study on the generic engine.

A *trial* is the full Section 3 pipeline under one (seed, variant) pair:
build the detection world, collect the campaign's measurements, run the
filter pipeline, and validate the remote/direct calls against the
simulator's ground truth.  :class:`DetectionStudy` expresses that as the
engine's ``build → run → measure`` contract; scheduling, world caching,
resume artifacts and parallelism all come from
:mod:`repro.experiments.engine`, and :meth:`DetectionStudy.metrics`
names every per-trial scalar the report aggregates.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence

from repro.core.detection.campaign import CampaignConfig, ProbeCampaign
from repro.core.detection.filters import FilterPipeline
from repro.core.detection.results import build_result
from repro.core.detection.validation import validate_against_truth
from repro.errors import ConfigurationError
from repro.rand import derive_seed
from repro.sim.detection_world import (
    DetectionWorld,
    DetectionWorldConfig,
    build_detection_world,
)


@dataclass(frozen=True, slots=True)
class ConfigVariant:
    """One named cell of the configuration grid.

    ``world`` carries the :class:`DetectionWorldConfig`;  ``campaign``
    carries the :class:`CampaignConfig` (whose ``filters`` field is the
    :class:`FilterConfig`).  The seeds in both are overridden per trial.
    """

    name: str
    world: DetectionWorldConfig = DetectionWorldConfig()
    campaign: CampaignConfig = CampaignConfig()


def grid_variants(
    world: DetectionWorldConfig | None = None,
    campaign: CampaignConfig | None = None,
    axes: Mapping[str, Sequence] | None = None,
) -> tuple[ConfigVariant, ...]:
    """Cartesian product of config axes as named variants.

    ``axes`` maps dotted field paths to value sequences:

    * ``"world.<field>"`` — a :class:`DetectionWorldConfig` field;
    * ``"campaign.<field>"`` — a :class:`CampaignConfig` field;
    * ``"filters.<field>"`` — a :class:`FilterConfig` field (inside the
      campaign config).

    Variant names join the swept assignments (``threshold_ms=5|replies=6``
    style), so reports stay readable without a naming scheme.
    """
    world = world or DetectionWorldConfig()
    campaign = campaign or CampaignConfig()
    if not axes:
        return (ConfigVariant(name="base", world=world, campaign=campaign),)
    scope_fields = {
        "world": {f.name for f in fields(DetectionWorldConfig)},
        "campaign": {f.name for f in fields(CampaignConfig)},
        "filters": {f.name for f in fields(campaign.filters)},
    }
    paths = list(axes)
    for path in paths:
        scope, _, fname = path.partition(".")
        if scope not in scope_fields or fname not in scope_fields[scope]:
            raise ConfigurationError(
                f"grid axis {path!r} must be world.<field>, campaign.<field> "
                "or filters.<field> naming an existing config field"
            )
        if fname == "seed":
            # Seeds are per-trial (StudyConfig.seeds) and would be
            # silently overwritten here — reject the no-op sweep loudly.
            raise ConfigurationError(
                f"grid axis {path!r} is not sweepable: trial seeds come "
                "from StudyConfig.seeds"
            )
    variants = []
    for combo in itertools.product(*(axes[p] for p in paths)):
        w, c = world, campaign
        parts = []
        for path, value in zip(paths, combo):
            scope, _, fname = path.partition(".")
            if scope == "world":
                w = replace(w, **{fname: value})
            elif scope == "campaign":
                c = replace(c, **{fname: value})
            else:  # filters
                c = replace(c, filters=replace(c.filters, **{fname: value}))
            parts.append(f"{fname}={value}")
        variants.append(
            ConfigVariant(name="|".join(parts), world=w, campaign=c)
        )
    return tuple(variants)


@dataclass(frozen=True, slots=True)
class TrialSpec:
    """One fully-resolved trial: picklable input of the study's measure."""

    trial_id: int
    variant: str
    seed: int
    world: DetectionWorldConfig
    campaign: CampaignConfig


@dataclass(frozen=True, slots=True)
class TrialResult:
    """Per-trial metrics (picklable output of the study's measure)."""

    trial_id: int
    variant: str
    seed: int
    candidate_count: int
    analyzed_count: int
    discard_counts: dict[str, int]
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    remote_fraction_by_ixp: dict[str, float]
    shortfall: int

    @property
    def precision(self) -> float | None:
        """Precision of the remote calls; None when nothing was called."""
        called = self.true_positives + self.false_positives
        return self.true_positives / called if called else None

    @property
    def recall(self) -> float | None:
        """Recall of the remote calls; None with no true remotes."""
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else None


def measure_detection_trial(
    spec: TrialSpec, world: DetectionWorld
) -> TrialResult:
    """Measure one trial against an already-built world.

    The world is read-only here (the campaign keeps its rate-limit ledger
    on its own client, and identification draws are pure in the world
    seed), so the engine can share one build across every trial whose
    world configuration matches.
    """
    measured = ProbeCampaign(world, spec.campaign).collect()
    report = FilterPipeline(spec.campaign.filters).run(measured)
    result = build_result(
        measurements=measured,
        report=report,
        threshold_ms=spec.campaign.remoteness_threshold_ms,
    )
    truth = validate_against_truth(world, result)
    return TrialResult(
        trial_id=spec.trial_id,
        variant=spec.variant,
        seed=spec.seed,
        candidate_count=len(measured),
        analyzed_count=result.analyzed_count(),
        discard_counts=dict(report.discard_counts),
        true_positives=truth.true_positives,
        false_positives=truth.false_positives,
        true_negatives=truth.true_negatives,
        false_negatives=truth.false_negatives,
        remote_fraction_by_ixp=result.remote_fraction_by_ixp(),
        shortfall=world.total_shortfall(),
    )


@dataclass(frozen=True, slots=True)
class DetectionStudy:
    """The detection ensemble as a :class:`repro.experiments.engine.Study`."""

    variants: tuple[ConfigVariant, ...] = (ConfigVariant(name="base"),)

    name = "detection"

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigurationError("a study needs at least one variant")
        if len({v.name for v in self.variants}) != len(self.variants):
            raise ConfigurationError("variant names must be distinct")

    def variant_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variants)

    def resolve(self, variant: str, seed: int, trial_id: int) -> TrialSpec:
        v = next(v for v in self.variants if v.name == variant)
        # The world takes the trial seed directly; the campaign seed is
        # *derived* from it so world and campaign streams stay independent.
        return TrialSpec(
            trial_id=trial_id,
            variant=variant,
            seed=seed,
            world=replace(v.world, seed=seed),
            campaign=replace(
                v.campaign, seed=derive_seed(seed, "ensemble", "campaign")
            ),
        )

    def world_key(self, spec: TrialSpec) -> DetectionWorldConfig:
        # Variants sweeping campaign/filter axes share the same world
        # config per seed, so a threshold grid builds each world once.
        return spec.world

    def build(self, spec: TrialSpec) -> DetectionWorld:
        return build_detection_world(spec.world)

    def measure(self, spec: TrialSpec, world: DetectionWorld) -> TrialResult:
        return measure_detection_trial(spec, world)

    def metrics(self, result: TrialResult) -> dict[str, float]:
        """Headline counts, ``discards/<filter>`` per filter and
        ``remote_fraction/<IXP>`` per IXP with analyzed interfaces (a
        trial without evidence for an IXP is left out, not counted 0)."""
        out = {
            "analyzed": float(result.analyzed_count),
            "candidates": float(result.candidate_count),
            "shortfall": float(result.shortfall),
        }
        if result.precision is not None:
            out["precision"] = result.precision
        if result.recall is not None:
            out["recall"] = result.recall
        for name, count in result.discard_counts.items():
            out[f"discards/{name}"] = float(count)
        for acronym, fraction in result.remote_fraction_by_ixp.items():
            out[f"remote_fraction/{acronym}"] = fraction
        return out

    def encode(self, result: TrialResult) -> dict:
        return asdict(result)

    def decode(self, payload: dict) -> TrialResult:
        return TrialResult(**payload)

