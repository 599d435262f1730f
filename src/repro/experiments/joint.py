"""The joint detection→offload study: Section 3's errors priced in Section 4/5.

Every other study in this package runs one link of the paper's argument
chain in isolation — detection assumes nothing about offload, and the
offload/economics studies assume an *oracle* peer map.  A joint trial
closes the loop for one seed's world family:

1. build the detection world, run the probing campaign, the filter
   pipeline and the ground-truth validation (the full Section 3 trial);
2. build the offload world for the same seed and derive its oracle
   remote-peer set: each candidate member is remote with probability
   equal to the detection world's *measured ground-truth* remote
   fraction (or a configured override);
3. replay the trial's measured detection confusion onto that set — a
   remote peer is detected with probability ``recall``, a direct member
   is falsely called remote with the trial's false-positive rate — and
   feed the **detected** set (not the oracle) into
   :meth:`~repro.core.offload.PeerGroups.restrict` and the
   :class:`~repro.core.offload.OffloadEstimator`;
4. compare three offload estimates — *oracle* (the truth), *detected*
   (what the operator believes, inflated by false positives), and
   *realized* (detected ∩ oracle: the peers that actually carry remote
   traffic) — and bill all three under the Section 2.1 95th-percentile
   scheme.

The headline numbers no single study reports: how detection
precision/recall propagate into the offload fraction, the
oracle-vs-detected offload gap, and the error in the transit-bill
savings an operator would forecast from its own (imperfect) peer map.

Billing consistency: contributing networks are split into four disjoint
cone-coverage components — realized, missed (oracle-only), phantom
(detected-only) and rest — each carried by the shared diurnal shape with
its own per-component noise stream.  Any query set's series is the sum
of its component intersections, so every offload series is bin-for-bin
≤ the transit series by construction.

The CLI front ends are ``repro study joint`` and ``repro scenarios run
joint`` (see :mod:`repro.experiments.requests`); ``examples/joint_study.py``
is a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro.core.detection.campaign import CampaignConfig
from repro.core.offload import ALL_GROUPS, OffloadEstimator, PeerGroups
from repro.errors import ConfigurationError
from repro.experiments.engine import Trial, VariantStudy
from repro.experiments.ensemble import (
    TrialSpec,
    measure_detection_trial,
    precision_recall,
)
from repro.netflow.billing import offload_billing_report
from repro.rand import child_rng, derive_seed
from repro.sim.detection_world import (
    DetectionWorld,
    DetectionWorldConfig,
    build_detection_world,
)
from repro.sim.offload_world import (
    OffloadWorld,
    OffloadWorldConfig,
    build_offload_world,
)
from repro.types import TrafficDirection


@dataclass(frozen=True, slots=True)
class JointVariant:
    """One named cell of the joint grid: a world family plus study knobs.

    ``remote_fraction`` fixes the oracle remote share of the offload
    world's candidate members; ``None`` (the default) uses the detection
    world's measured ground-truth remote fraction, keeping the two halves
    of the family consistent per seed.
    """

    name: str
    detection_world: DetectionWorldConfig = DetectionWorldConfig()
    campaign: CampaignConfig = CampaignConfig()
    offload_world: OffloadWorldConfig = OffloadWorldConfig()
    group: int = 4
    remote_fraction: float | None = None
    price_per_mbps: float = 1.0
    percentile: float = 95.0

    def __post_init__(self) -> None:
        if self.group not in ALL_GROUPS:
            raise ConfigurationError(f"unknown peer group {self.group}")
        if self.remote_fraction is not None and not (
            0.0 <= self.remote_fraction <= 1.0
        ):
            raise ConfigurationError("remote_fraction must be in [0, 1]")
        if not 0 < self.percentile <= 100:
            raise ConfigurationError("percentile must be in (0, 100]")
        if self.price_per_mbps < 0:
            raise ConfigurationError("price_per_mbps cannot be negative")


@dataclass(frozen=True, slots=True)
class JointTrialSpec:
    """One fully-resolved trial: picklable input of the study's measure."""

    trial_id: int
    variant: str
    seed: int
    detection_world: DetectionWorldConfig
    campaign: CampaignConfig
    offload_world: OffloadWorldConfig
    group: int
    remote_fraction: float | None
    price_per_mbps: float
    percentile: float


class JointWorlds(NamedTuple):
    """One seed's world family: the Section 3 and Section 4 worlds."""

    detection: DetectionWorld
    offload: OffloadWorld


def _detection_confusion(
    spec: JointTrialSpec, world: DetectionWorld
) -> tuple[float | None, float | None, float, float]:
    """(precision, recall, false-positive rate, truth remote fraction)."""
    detection = measure_detection_trial(
        TrialSpec(
            trial_id=spec.trial_id,
            variant=spec.variant,
            seed=spec.seed,
            world=spec.detection_world,
            campaign=spec.campaign,
        ),
        world,
    ).values
    truly_direct = detection["false_positives"] + detection["true_negatives"]
    fp_rate = (
        detection["false_positives"] / truly_direct if truly_direct else 0.0
    )
    total = (
        detection["true_positives"] + detection["false_positives"]
        + detection["true_negatives"] + detection["false_negatives"]
    )
    truly_remote = detection["true_positives"] + detection["false_negatives"]
    truth_fraction = truly_remote / total if total else 0.0
    return (*precision_recall(detection), fp_rate, truth_fraction)


def measure_joint_trial(spec: JointTrialSpec, worlds: JointWorlds) -> Trial:
    """Sections 3 → 4 → 2.1 against an already-built world family."""
    precision, recall, fp_rate, truth_fraction = _detection_confusion(
        spec, worlds.detection
    )

    world = worlds.offload
    groups = PeerGroups.build(world)
    members = sorted(groups.candidates)

    # Oracle remoteness per candidate, then the replayed detector: remote
    # members are found with the trial's measured recall, direct members
    # are falsely called with its measured false-positive rate.  Both
    # streams are derived from the trial seed, so trials are reproducible
    # and independent of each other.
    remote_share = (
        spec.remote_fraction
        if spec.remote_fraction is not None else truth_fraction
    )
    oracle_draws = child_rng(spec.seed, "joint", "oracle").random(len(members))
    detect_draws = child_rng(spec.seed, "joint", "detect").random(len(members))
    recall_p = recall if recall is not None else 0.0
    oracle: set = set()
    detected: set = set()
    for asn, u_oracle, u_detect in zip(members, oracle_draws, detect_draws):
        is_remote = bool(u_oracle < remote_share)
        if is_remote:
            oracle.add(asn)
        if u_detect < (recall_p if is_remote else fp_rate):
            detected.add(asn)
    realized = oracle & detected

    def fractions_and_mask(allowed: set) -> tuple[float, float, np.ndarray]:
        estimator = OffloadEstimator(world, groups.restrict(frozenset(allowed)))
        ixps = estimator.reachable_ixps()
        inbound, outbound = estimator.offload_fractions(ixps, spec.group)
        return inbound, outbound, estimator.mask_for(ixps, spec.group)

    o_in, o_out, oracle_mask = fractions_and_mask(oracle)
    d_in, d_out, detected_mask = fractions_and_mask(detected)
    r_in, r_out, realized_mask = fractions_and_mask(realized)

    # Disjoint cone-coverage components, each with its own noise stream.
    # realized_mask ⊆ oracle_mask (realized members ⊆ oracle members), so
    # R ∪ M = oracle coverage; phantom is the detected-only coverage.
    component_masks = {
        "realized": realized_mask,
        "missed": oracle_mask & ~realized_mask,
        "phantom": detected_mask & ~oracle_mask,
    }
    covered = oracle_mask | detected_mask
    component_masks["rest"] = ~covered
    collector = world.collector

    def series_for(query: np.ndarray | None) -> np.ndarray:
        """Summed in+out series of ``query`` (None = all contributors)."""
        total = np.zeros(collector.bins())
        for name, component in component_masks.items():
            mask = component if query is None else (component & query)
            if not mask.any():
                continue
            seed = derive_seed(spec.seed, "joint", "series", name)
            for direction in (TrafficDirection.INBOUND,
                              TrafficDirection.OUTBOUND):
                total = total + collector.aggregate_series(
                    direction, mask=mask, seed=seed
                )
        return total

    transit_series = series_for(None)

    def savings(offload_mask: np.ndarray) -> tuple[float, float]:
        report = offload_billing_report(
            transit_series, series_for(offload_mask),
            price_per_mbps=spec.price_per_mbps, percentile=spec.percentile,
        )
        return report.before_bill, report.savings_fraction

    before_bill, oracle_savings = savings(oracle_mask)
    _, believed_savings = savings(detected_mask)
    _, realized_savings = savings(realized_mask)
    return Trial(spec.trial_id, spec.variant, spec.seed, {
        # Section 3: the detection trial's confusion.
        "precision": precision,  # None when nothing was called remote
        "recall": recall,  # None when nothing truly is remote
        "false_positive_rate": fp_rate,  # FP / (FP + TN), analyzed set
        # Ground-truth remote share of the analyzed interfaces.
        "truth_remote_fraction": truth_fraction,
        # Peer-map propagation (member level, offload-world candidates):
        # the candidates that truly are remote peers, those the replayed
        # detector called, detected ∩ oracle (usable peers) and detected
        # but not oracle (useless calls).
        "candidate_count": len(members),
        "oracle_peer_count": len(oracle),
        "detected_peer_count": len(detected),
        "realized_peer_count": len(realized),
        "phantom_peer_count": len(detected - oracle),
        # Section 4: offload fractions under the three peer maps.
        "oracle_inbound_fraction": o_in,
        "oracle_outbound_fraction": o_out,
        "detected_inbound_fraction": d_in,
        "detected_outbound_fraction": d_out,
        "realized_inbound_fraction": r_in,
        "realized_outbound_fraction": r_out,
        # Section 2.1/5: 95th-percentile billing under the three maps;
        # "believed" is the forecast from the detected map, "realized"
        # what the operator actually saves.
        "before_bill": before_bill,
        "oracle_savings_fraction": oracle_savings,
        "believed_savings_fraction": believed_savings,
        "realized_savings_fraction": realized_savings,
    })


@dataclass(frozen=True, slots=True)
class JointStudy(VariantStudy):
    """The joint ensemble as a :class:`repro.experiments.engine.Study`."""

    variants: tuple[JointVariant, ...] = (JointVariant(name="base"),)

    name = "joint"
    trial_fields = (
        "precision", "recall", "false_positive_rate", "truth_remote_fraction",
        "candidate_count", "oracle_peer_count", "detected_peer_count",
        "realized_peer_count", "phantom_peer_count",
        "oracle_inbound_fraction", "oracle_outbound_fraction",
        "detected_inbound_fraction", "detected_outbound_fraction",
        "realized_inbound_fraction", "realized_outbound_fraction",
        "before_bill", "oracle_savings_fraction",
        "believed_savings_fraction", "realized_savings_fraction",
    )

    def resolve(self, variant: str, seed: int, trial_id: int) -> JointTrialSpec:
        v = self.variant(variant)
        # Both worlds of the family take the trial seed; the campaign
        # stream is derived so probing stays independent of the builds.
        return JointTrialSpec(
            trial_id=trial_id,
            variant=variant,
            seed=seed,
            detection_world=replace(v.detection_world, seed=seed),
            campaign=replace(
                v.campaign, seed=derive_seed(seed, "joint", "campaign")
            ),
            offload_world=replace(v.offload_world, seed=seed),
            group=v.group,
            remote_fraction=v.remote_fraction,
            price_per_mbps=v.price_per_mbps,
            percentile=v.percentile,
        )

    def world_key(self, spec: JointTrialSpec):
        # Variants sweeping the study knobs (group, prices, remote share)
        # share one world-family build per seed.
        return (spec.detection_world, spec.offload_world)

    def build(self, spec: JointTrialSpec) -> JointWorlds:
        return JointWorlds(
            detection=build_detection_world(spec.detection_world),
            offload=build_offload_world(spec.offload_world),
        )

    def measure(self, spec: JointTrialSpec, world: JointWorlds) -> Trial:
        return measure_joint_trial(spec, world)

    def metrics(self, result: Trial) -> dict[str, float]:
        """The ``*_fraction`` keys average the two directions' offload
        fractions of one peer map: the oracle (the truth), the detected
        set (the operator's estimate) and what the detected map actually
        realizes."""
        values = result.values
        oracle = 0.5 * (values["oracle_inbound_fraction"]
                        + values["oracle_outbound_fraction"])
        detected = 0.5 * (values["detected_inbound_fraction"]
                          + values["detected_outbound_fraction"])
        realized = 0.5 * (values["realized_inbound_fraction"]
                          + values["realized_outbound_fraction"])
        out = {
            "detected_fraction": detected,
            "oracle_fraction": oracle,
            "realized_fraction": realized,
            # Positive when detection misses offload.
            "offload_gap": oracle - detected,
            "oracle_savings": values["oracle_savings_fraction"],
            "believed_savings": values["believed_savings_fraction"],
            "realized_savings": values["realized_savings_fraction"],
            # Forecast minus realized savings (positive: over-promise).
            "billing_error": values["believed_savings_fraction"]
            - values["realized_savings_fraction"],
            "before_bill": values["before_bill"],
            "oracle_peers": float(values["oracle_peer_count"]),
            "detected_peers": float(values["detected_peer_count"]),
            "phantom_peers": float(values["phantom_peer_count"]),
        }
        if values["precision"] is not None:
            out["precision"] = values["precision"]
        if values["recall"] is not None:
            out["recall"] = values["recall"]
        return out

