"""The failover scenario: registry, end-to-end run, monotone billing error.

The property test is the scenario's contract: dark-window duration
scales sweep *nested* window unions on a fixed seed, so the billing
error (ideal − realized savings) must be monotone non-decreasing along
the sweep, per seed.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    FailoverStudy,
    FailoverVariant,
    StudyConfig,
    expand_trials,
    render_report,
    resolve,
    run_study,
    scenario_names,
)
from repro.experiments.scenarios import DARK_DURATION_SCALES
from repro.faults import FaultConfig
from tests.engine_equivalence import tiny_offload_config


def scale_variants(scales, **overrides):
    return tuple(
        FailoverVariant(
            name=f"dark={scale}x",
            world=tiny_offload_config(),
            faults=FaultConfig(duration_scale=scale)
            if scale > 0
            else FaultConfig(intensity=0.0),
            **overrides,
        )
        for scale in scales
    )


class TestRegistry:
    def test_new_scenarios_registered(self):
        names = scenario_names()
        assert "failover" in names
        assert "churned-detection" in names

    def test_failover_resolves_both_presets(self):
        for preset in ("small", "paper"):
            label, study, config = resolve("scenario", {
                "name": "failover", "preset": preset, "seeds": [0, 1],
                "workers": 1,
            })
            assert label == "scenario:failover"
            assert study.name == "failover"
            assert len(expand_trials(study, config.seeds)) == \
                len(DARK_DURATION_SCALES) * 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="preset"):
            resolve("scenario", {"name": "failover", "preset": "huge"})


SWEEP = FailoverStudy(variants=scale_variants((0.0, 1.0, 4.0), max_ixps=4))


def run_sweep():
    return run_study(SWEEP, StudyConfig(seeds=(3, 4, 5), workers=1))


class TestFailoverEnsemble:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep()

    def test_fault_variants_share_world_builds(self, result):
        # 3 variants x 3 seeds but the chaos lives outside the world:
        # one build per seed.
        assert result.world_builds == 3
        assert result.world_reuses == 6

    def test_zero_intensity_is_fault_free(self, result):
        for trial in result.by_variant()["dark=0.0x"]:
            assert trial.values["dark_window_count"] == 0
            assert SWEEP.metrics(trial)["billing_error"] == 0.0
            assert trial.values["burst_penalty"] == 0.0
            assert trial.values["realized_savings_fraction"] == pytest.approx(
                trial.values["ideal_savings_fraction"]
            )

    def test_ideal_savings_independent_of_chaos(self, result):
        by_variant = result.by_variant()
        baseline = [
            t.values["ideal_savings_fraction"] for t in by_variant["dark=0.0x"]
        ]
        for name in ("dark=1.0x", "dark=4.0x"):
            assert [
                t.values["ideal_savings_fraction"] for t in by_variant[name]
            ] == baseline

    def test_billing_error_monotone_in_duration_scale(self, result):
        by_variant = result.by_variant()
        for i in range(len(result.config.seeds)):
            errors = [
                SWEEP.metrics(by_variant[name][i])["billing_error"]
                for name in ("dark=0.0x", "dark=1.0x", "dark=4.0x")
            ]
            assert all(
                a <= b + 1e-12 for a, b in zip(errors, errors[1:])
            ), f"seed index {i}: billing error not monotone: {errors}"
            assert all(e >= 0.0 for e in errors)

    def test_report_renders(self, result):
        report = render_report(SWEEP, result)
        assert "Failover ensemble" in report
        assert "dark=4.0x" in report
        assert "billing error" in report

    def test_trials_are_reproducible(self, result):
        again = run_sweep()
        assert again.trials == result.trials
