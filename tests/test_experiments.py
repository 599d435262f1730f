"""The detection study: config grids, trials, aggregates, report, CLI."""

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.experiments import (
    ConfigVariant,
    DetectionStudy,
    StudyConfig,
    aggregate,
    expand_trials,
    grid_variants,
    mean_ci,
    render_report,
    run_study,
)
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig

#: One small IXP: trials build in well under a second.
TORIX = (spec_by_acronym("TorIX"),)

TINY = DetectionStudy(variants=(
    ConfigVariant(name="tiny", world=DetectionWorldConfig(specs=TORIX)),
))


def run_tiny(seeds=(0, 1), workers=1, study=TINY):
    return run_study(study, StudyConfig(seeds=tuple(seeds), workers=workers))


class TestMeanCI:
    def test_single_value_zero_width(self):
        ci = mean_ci([4.0])
        assert ci.mean == 4.0 and ci.half_width == 0.0 and ci.n == 1

    def test_known_sample(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        # s = 1, se = 1/sqrt(3), t_0.975(df=2) = 4.303
        assert ci.half_width == pytest.approx(4.303 / 3**0.5, rel=1e-3)
        assert ci.mean - ci.half_width < 2.0 < ci.mean + ci.half_width

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            mean_ci([])

    def test_large_sample_uses_normal(self):
        ci = mean_ci([0.0, 1.0] * 40)
        assert ci.n == 80
        assert ci.half_width == pytest.approx(
            1.96 * (0.25 * 80 / 79) ** 0.5 / 80**0.5, rel=1e-3
        )


class TestGridVariants:
    def test_no_axes_single_base_variant(self):
        variants = grid_variants()
        assert len(variants) == 1 and variants[0].name == "base"

    def test_cartesian_product_and_names(self):
        variants = grid_variants(
            axes={
                "campaign.remoteness_threshold_ms": (5.0, 10.0),
                "filters.min_replies_per_lg": (6, 8),
            },
        )
        assert len(variants) == 4
        names = {v.name for v in variants}
        assert "remoteness_threshold_ms=5.0|min_replies_per_lg=6" in names
        thresholds = {v.campaign.remoteness_threshold_ms for v in variants}
        assert thresholds == {5.0, 10.0}
        floors = {v.campaign.filters.min_replies_per_lg for v in variants}
        assert floors == {6, 8}

    def test_world_axis(self):
        variants = grid_variants(axes={"world.far_metro_fraction": (0.0, 0.2)})
        assert {v.world.far_metro_fraction for v in variants} == {0.0, 0.2}

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_variants(axes={"bogus.path": (1,)})
        with pytest.raises(ConfigurationError):
            grid_variants(axes={"campaign": (1,)})

    def test_unknown_field_rejected(self):
        # Typos must fail loudly as config errors, not TypeErrors mid-grid.
        with pytest.raises(ConfigurationError):
            grid_variants(axes={"campaign.remoteness_treshold_ms": (5.0,)})

    def test_seed_axis_rejected(self):
        # Seeds are per-trial (StudyConfig.seeds); sweeping them here
        # would be silently overwritten, so it is rejected.
        with pytest.raises(ConfigurationError):
            grid_variants(axes={"world.seed": (1, 2)})
        with pytest.raises(ConfigurationError):
            grid_variants(axes={"campaign.seed": (1, 2)})


class TestEnsembleConfig:
    def test_trials_are_seeds_times_variants(self):
        study = DetectionStudy(variants=(
            ConfigVariant(name="a", world=DetectionWorldConfig(specs=TORIX)),
            ConfigVariant(name="b", world=DetectionWorldConfig(specs=TORIX)),
        ))
        trials = expand_trials(study, (3, 4, 5))
        assert len(trials) == 6
        assert [t.trial_id for t in trials] == list(range(6))
        assert {t.world.seed for t in trials} == {3, 4, 5}
        # Campaign seeds are derived, not equal to the world seed, and
        # identical for the same trial seed across variants.
        by_seed = {}
        for t in trials:
            assert t.campaign.seed != t.seed
            by_seed.setdefault(t.seed, set()).add(t.campaign.seed)
        assert all(len(s) == 1 for s in by_seed.values())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=())
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(1, 1))
        with pytest.raises(ConfigurationError):
            DetectionStudy(
                variants=(ConfigVariant(name="x"), ConfigVariant(name="x")),
            )
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(1,), workers=-1)


class TestRunTrial:
    def test_single_trial_metrics(self):
        run = run_tiny(seeds=(0,))
        (result,) = run.trials
        assert result.variant == "tiny" and result.seed == 0
        values = result.values
        assert 0 < values["analyzed_count"] <= values["candidate_count"]
        assert set(values["discard_counts"]) == {
            "sample-size", "ttl-switch", "ttl-match", "rtt-consistent",
            "lg-consistent", "asn-change",
        }
        metrics = TINY.metrics(result)
        assert 0.0 <= metrics.get("precision", 0.0) <= 1.0
        assert 0.0 <= metrics.get("recall", 0.0) <= 1.0
        assert "TorIX" in values["remote_fraction_by_ixp"]
        # The scheduler times the trial beside its result, not inside it.
        timing = run.timings[result.trial_id]
        assert timing["build_s"] > 0 and timing["measure_s"] > 0


class TestRunEnsemble:
    def test_inline_run_and_aggregate(self):
        result = run_tiny(seeds=(0, 1, 2))
        assert [t.seed for t in result.trials] == [0, 1, 2]
        stats = aggregate(TINY, result)
        assert list(stats) == ["tiny"]
        tiny = stats["tiny"]
        assert tiny["candidates"].n == 3
        assert 0.9 <= tiny["precision"].mean <= 1.0
        assert tiny["recall"].mean > 0.5
        assert tiny["analyzed"].n == 3
        assert {key for key in tiny if key.startswith("discards/")} == {
            "discards/sample-size", "discards/ttl-switch",
            "discards/ttl-match", "discards/rtt-consistent",
            "discards/lg-consistent", "discards/asn-change",
        }
        assert "remote_fraction/TorIX" in tiny

    def test_report_renders(self):
        text = render_report(TINY, run_tiny(seeds=(0, 1)), per_ixp=True)
        assert "precision" in text and "tiny" in text
        assert "Per-filter discards" in text
        assert "TorIX" in text

    def test_variant_grid_changes_outcomes(self):
        variants = grid_variants(
            world=DetectionWorldConfig(specs=TORIX),
            axes={"campaign.remoteness_threshold_ms": (5.0, 20.0)},
        )
        study = DetectionStudy(variants=variants)
        stats = aggregate(study, run_tiny(study=study))
        assert len(stats) == 2
        loose, tight = (
            stats["remoteness_threshold_ms=20.0"],
            stats["remoteness_threshold_ms=5.0"],
        )
        # Lower thresholds call at least as many interfaces remote.
        tight_fraction = tight["remote_fraction/TorIX"].mean
        loose_fraction = loose["remote_fraction/TorIX"].mean
        assert tight_fraction >= loose_fraction


@pytest.mark.slow
class TestRunEnsembleParallel:
    def test_process_pool_matches_inline(self):
        inline = run_tiny(seeds=(0, 1), workers=1)
        pooled = run_tiny(seeds=(0, 1), workers=2)
        assert pooled.trials == inline.trials


class TestEnsembleCLI:
    def test_mini_run(self, capsys):
        from repro.cli import study_main

        assert study_main([
            "detection", "--preset", "mini3", "--seeds", "2",
            "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "precision" in out and "Ensemble" in out

    def test_ixps_override(self, capsys):
        from repro.cli import study_main

        assert study_main([
            "detection", "--ixps", "TorIX", "--seeds", "2", "--workers", "1",
            "--per-ixp",
        ]) == 0
        assert "TorIX" in capsys.readouterr().out

    def test_dispatcher(self, capsys):
        from repro.cli import main

        assert main([
            "study", "detection", "--ixps", "TorIX", "--seeds", "1",
            "--workers", "1",
        ]) == 0
        assert "Ensemble" in capsys.readouterr().out
