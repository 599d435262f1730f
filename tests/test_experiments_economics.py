"""The economics study: Sections 3+4+5 end-to-end across seeds."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, EconomicsError
from repro.experiments import (
    EconomicsStudy,
    EconomicsVariant,
    StudyConfig,
    aggregate,
    economics_grid_variants,
    mean_ci,
    render_report,
    run_study,
)
from repro.experiments.engine import _artifact_path
from repro.sim.scenarios import rediris_small_config


def small_variant(**kwargs) -> EconomicsVariant:
    return EconomicsVariant(
        name=kwargs.pop("name", "small"),
        world=rediris_small_config(),
        **kwargs,
    )


def small_study(**variant_kwargs) -> EconomicsStudy:
    return EconomicsStudy(variants=(small_variant(**variant_kwargs),))


def run_inline(study, seeds=(0, 1), out_dir=None):
    return run_study(
        study, StudyConfig(seeds=tuple(seeds), workers=1, out_dir=out_dir)
    )


class TestEconomicsVariant:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EconomicsVariant(name="x", group=9)
        with pytest.raises(ConfigurationError):
            EconomicsVariant(name="x", max_ixps=1)
        with pytest.raises(ConfigurationError):
            EconomicsVariant(name="x", percentile=0.0)
        with pytest.raises(EconomicsError):
            # Price structure must satisfy u < v < p up front, not at
            # trial time deep inside a worker.
            EconomicsVariant(name="x", remote_unit=9.0)

    def test_grid_variants(self):
        variants = economics_grid_variants(
            world=rediris_small_config(),
            axes={"world.member_tier2_fraction": (0.3, 0.5)},
            groups=(1, 4),
        )
        assert len(variants) == 4
        names = {v.name for v in variants}
        assert "member_tier2_fraction=0.3|group=1" in names
        with pytest.raises(ConfigurationError):
            economics_grid_variants(axes={"world.seed": (1, 2)})
        with pytest.raises(ConfigurationError):
            economics_grid_variants(axes={"bogus.field": (1,)})
        with pytest.raises(ConfigurationError):
            economics_grid_variants(groups=())


class TestEconomicsTrial:
    def test_end_to_end_small_world(self):
        (result,) = run_inline(small_study(), seeds=(0,)).trials
        assert result.variant == "small" and result.seed == 0
        assert result.candidate_count > 100
        assert 0.0 < result.inbound_fraction < 1.0
        assert 0.0 < result.outbound_fraction < 1.0
        assert result.decay_rate > 0.0
        assert 0.0 <= result.decay_floor < 1.0
        # Peaks coincide (Fig 5b): percentile savings track the offload
        # share of the transit series.
        assert result.before_bill > result.after_bill > 0.0
        assert result.savings_fraction == pytest.approx(
            0.5 * (result.inbound_fraction + result.outbound_fraction),
            abs=0.1,
        )
        assert result.viability_threshold == pytest.approx(
            math.exp(result.decay_rate), rel=1e-9
        )

    def test_golden_small_world_verdict(self):
        """Fixed-seed golden: the small world's measured decay is steep
        (b well above 1), so the default Section 5 prices fail eq. 14 —
        the Figure 9 'few IXPs realize most potential' shape makes remote
        peering *unnecessary* for a RedIRIS-like NREN at these prices."""
        study = small_study()
        (small,) = aggregate(
            study, run_inline(study, seeds=(0, 1, 2))
        ).values()
        assert small["viable"] == mean_ci([0.0, 0.0, 0.0])
        assert 1.0 < small["decay_rate"].mean < 2.2
        assert 0.2 < small["savings_fraction"].mean < 0.4
        # The same seeds with an Africa-like fixed-cost advantage
        # (h << g, expensive transit) flip every vote — Section 5.2.
        africa = small_study(
            name="africa",
            transit_price=10.0, direct_fixed=8.0, direct_unit=1.0,
            remote_fixed=0.8, remote_unit=3.0,
        )
        (africa_stats,) = aggregate(
            africa, run_inline(africa, seeds=(0, 1, 2))
        ).values()
        assert africa_stats["viable"] == mean_ci([1.0, 1.0, 1.0])

    def test_group_grid_shares_worlds(self):
        result = run_inline(EconomicsStudy(variants=(
            small_variant(name="g1", group=1),
            small_variant(name="g4", group=4),
        )))
        assert result.world_builds == 2 and result.world_reuses == 2
        by_variant = result.by_variant()
        # Group 1 (open policies only) can never offload more than group 4.
        for t1, t4 in zip(by_variant["g1"], by_variant["g4"]):
            assert t1.inbound_fraction <= t4.inbound_fraction
            assert t1.savings_fraction <= t4.savings_fraction


class TestEconomicsResume:
    def test_resume_identical_aggregates(self, tmp_path):
        study = small_study()
        full = run_inline(study, out_dir=str(tmp_path))
        path = _artifact_path(study, str(tmp_path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 2
        path.write_text("".join(lines[:2]))
        resumed = run_inline(study, out_dir=str(tmp_path))
        assert resumed.resumed == 1
        assert aggregate(study, resumed) == aggregate(study, full)


class TestEconomicsReport:
    def test_render(self):
        study = small_study()
        text = render_report(study, run_inline(study))
        assert "Economics ensemble" in text
        assert "bill savings" in text
        assert "viable (eq. 14)" in text
        assert "Billing and viability — small" in text
        assert "0/2" in text


class TestEconomicsCLI:
    def test_small_run(self, capsys):
        from repro.cli import study_main

        assert study_main(
            ["economics", "--preset", "small", "--seeds", "2",
             "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Economics ensemble" in out and "viable (eq. 14)" in out

    def test_study_dispatcher(self, capsys):
        from repro.cli import main

        assert main(
            ["study", "economics", "--seeds", "2", "--workers", "1"]
        ) == 0
        assert "Economics ensemble" in capsys.readouterr().out

    def test_bad_prices_error(self):
        from repro.cli import study_main

        with pytest.raises(SystemExit):
            study_main(["economics", "--remote-unit", "9.0", "--seeds", "1"])
