"""Golden-report snapshots: every registry renderer, byte-for-byte.

The repo's change log repeatedly claims "reports are byte-identical"
across refactors; these snapshots make that a gate instead of an
assertion.  Each test runs a small fixed-seed study inline, zeroes the
wall-clock figures (the only nondeterministic bytes in a report), and
compares the text of :func:`~repro.experiments.requests.render_report`
against a committed golden file.

To regenerate after an *intentional* report change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_reports.py

then review the diff of ``tests/golden/`` like any other code change.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import (
    DetectionStudy,
    EconomicsStudy,
    EconomicsVariant,
    FailoverStudy,
    FailoverVariant,
    JointStudy,
    JointVariant,
    MegaStudy,
    MegaVariant,
    OffloadStudy,
    OffloadVariant,
    StudyConfig,
    grid_variants,
    render_report,
    run_study,
)
from repro.experiments.engine import TrialFailure
from repro.faults import FaultConfig
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.megatopo import MegaWorldConfig
from tests.engine_equivalence import tiny_offload_config

GOLDEN_DIR = Path(__file__).parent / "golden"

TORIX = (spec_by_acronym("TorIX"),)


def assert_matches_golden(name: str, report: str) -> None:
    """Compare (or, with REPRO_UPDATE_GOLDENS=1, rewrite) one snapshot."""
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report + "\n", encoding="utf-8")
        pytest.skip(f"rewrote {path}")
    assert path.exists(), (
        f"golden file {path} missing — run with REPRO_UPDATE_GOLDENS=1 "
        "to create it"
    )
    expected = path.read_text(encoding="utf-8")
    assert report + "\n" == expected, (
        f"report drifted from {path}; if the change is intentional, "
        "regenerate with REPRO_UPDATE_GOLDENS=1 and review the diff"
    )


def golden_report(study, seeds, **flags) -> str:
    """The inline run's report with every wall-clock figure zeroed."""
    result = run_study(study, StudyConfig(seeds=seeds, workers=1))
    result.wall_s = 0.0
    result.timings = {
        trial_id: dict.fromkeys(timing, 0.0)
        for trial_id, timing in result.timings.items()
    }
    return render_report(study, result, **flags)


def detection_study() -> DetectionStudy:
    return DetectionStudy(variants=grid_variants(
        world=DetectionWorldConfig(specs=TORIX),
        axes={"campaign.remoteness_threshold_ms": (5.0, 10.0)},
    ))


def offload_study() -> OffloadStudy:
    return OffloadStudy(variants=(
        OffloadVariant(name="tiny", world=tiny_offload_config(), max_ixps=4),
        OffloadVariant(
            name="no-exclusions",
            world=tiny_offload_config(),
            max_ixps=4,
            exclude_transit_providers=False,
            exclude_home_ixp_members=False,
            exclude_geant_club=False,
        ),
    ))


def economics_study() -> EconomicsStudy:
    return EconomicsStudy(variants=(
        EconomicsVariant(name="tiny", world=tiny_offload_config(), max_ixps=6),
    ))


def failover_study() -> FailoverStudy:
    return FailoverStudy(variants=tuple(
        FailoverVariant(
            name=f"dark={scale}x",
            world=tiny_offload_config(),
            faults=FaultConfig(duration_scale=scale)
            if scale > 0
            else FaultConfig(intensity=0.0),
            max_ixps=4,
        )
        for scale in (0.0, 1.0, 4.0)
    ))


def joint_study() -> JointStudy:
    return JointStudy(variants=(
        JointVariant(
            name="tiny",
            detection_world=DetectionWorldConfig(specs=TORIX),
            offload_world=tiny_offload_config(),
        ),
    ))


def mega_study() -> MegaStudy:
    world = MegaWorldConfig(size=600, seed=5)
    return MegaStudy(variants=tuple(
        MegaVariant(name=f"depth={depth}", world=world, max_ixps=depth)
        for depth in (3, 8)
    ))


@pytest.mark.golden
class TestGoldenReports:
    def test_detection_ensemble_report(self):
        assert_matches_golden(
            "detection_ensemble.txt",
            golden_report(detection_study(), (0, 1), per_ixp=True),
        )

    def test_offload_ensemble_report(self):
        assert_matches_golden(
            "offload_ensemble.txt", golden_report(offload_study(), (3, 4))
        )

    def test_economics_ensemble_report(self):
        assert_matches_golden(
            "economics_ensemble.txt",
            golden_report(economics_study(), (3, 4)),
        )

    def test_failover_ensemble_report(self):
        assert_matches_golden(
            "failover_ensemble.txt", golden_report(failover_study(), (3, 4))
        )

    def test_joint_ensemble_report(self):
        assert_matches_golden(
            "joint_ensemble.txt", golden_report(joint_study(), (0, 1))
        )

    def test_mega_report(self):
        assert_matches_golden(
            "mega_ensemble.txt", golden_report(mega_study(), (0, 1))
        )


def headline_row(report: str, variant: str) -> list[str]:
    """The cells of ``variant``'s row in the report's headline table."""
    headline = report.split("\n\n")[0]
    for line in headline.splitlines():
        if line.split()[:1] == [variant]:
            return line.split()
    raise AssertionError(f"no headline row for {variant!r}:\n{headline}")


class TestVariantThatLostEveryTrial:
    """Every report lists a variant whose trials were all quarantined, as
    a row of ``n/a`` cells with 0 trials, beside the surviving ones."""

    @pytest.mark.parametrize("make_study", [
        detection_study, offload_study, economics_study, failover_study,
        joint_study,
    ])
    def test_headline_keeps_the_lost_variant(self, make_study):
        study = make_study()
        result = run_study(study, StudyConfig(seeds=(3,), workers=1))
        lost = study.variant_names()[-1]
        result.failures = [
            TrialFailure(t.trial_id, t.variant, t.seed, "lost")
            for t in result.trials if t.variant == lost
        ]
        result.trials = [t for t in result.trials if t.variant != lost]
        report = render_report(study, result)

        cells = headline_row(report, lost)
        trials_at = report.splitlines()[1].split().index("trials")
        assert cells[trials_at] == "0"
        assert cells[trials_at + 1:] == ["n/a"] * (len(cells) - trials_at - 1)
        for survivor in study.variant_names()[:-1]:
            assert headline_row(report, survivor)[trials_at] == "1"
        assert "degraded coverage" in report
