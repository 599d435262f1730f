"""Offload studies (config grids, runner, aggregates, CLI) and the
offload edge cases the vectorized estimator must survive: empty peer
groups, empty traffic matrices, and single-IXP expansions."""

import dataclasses

import numpy as np
import pytest

from repro.core.offload import (
    OffloadEstimator,
    PeerGroups,
    greedy_expansion,
)
from repro.errors import ConfigurationError
from repro.experiments import (
    OffloadStudy,
    OffloadVariant,
    StudyConfig,
    aggregate,
    expand_trials,
    offload_grid_variants,
    render_report,
    run_study,
)
from repro.netflow.traffic import (
    TrafficMatrix,
    TrafficMatrixConfig,
    rank_profile_totals,
)
from repro.rand import make_rng
from repro.reporting import expansion_consensus
from repro.sim.offload_world import OffloadWorldConfig

TINY_WORLD = OffloadWorldConfig(
    seed=0,
    contributing_count=800,
    tier2_count=60,
    tier1_count=4,
    nren_count=4,
    mega_carrier_count=6,
    big_eyeball_count=12,
    head_pin_count=15,
)


TINY = OffloadStudy(
    variants=(OffloadVariant(name="tiny", world=TINY_WORLD, max_ixps=4),),
)


def run_tiny(seeds=(0, 1)):
    return run_study(TINY, StudyConfig(seeds=tuple(seeds), workers=1))


class TestOffloadGridVariants:
    def test_no_axes_single_variant_per_group(self):
        variants = offload_grid_variants()
        assert len(variants) == 1
        assert variants[0].group == 4

    def test_world_axis_times_groups(self):
        variants = offload_grid_variants(
            world=TINY_WORLD,
            axes={"world.member_tier2_fraction": (0.4, 0.6)},
            groups=(1, 4),
        )
        assert len(variants) == 4
        names = {v.name for v in variants}
        assert "member_tier2_fraction=0.4|group=1" in names
        assert {v.group for v in variants} == {1, 4}

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            offload_grid_variants(axes={"world.nope": (1,)})
        with pytest.raises(ConfigurationError):
            offload_grid_variants(axes={"campaign.seed": (1,)})

    def test_seed_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            offload_grid_variants(axes={"world.seed": (1, 2)})

    def test_bad_group_rejected(self):
        with pytest.raises(ConfigurationError):
            offload_grid_variants(groups=(7,))
        with pytest.raises(ConfigurationError):
            OffloadVariant(name="x", group=9)


class TestEnsembleConfig:
    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(1, 1))

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ConfigurationError):
            OffloadStudy(variants=(
                OffloadVariant(name="a", world=TINY_WORLD),
                OffloadVariant(name="a", world=TINY_WORLD),
            ))

    def test_trials_are_variant_major_with_overridden_seeds(self):
        specs = expand_trials(TINY, (3, 5))
        assert [s.seed for s in specs] == [3, 5]
        assert all(s.world.seed == s.seed for s in specs)


class TestRunner:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tiny(seeds=(0, 1, 2))

    def test_trial_metrics_sane(self, result):
        assert len(result.trials) == 3
        for trial in result.trials:
            assert 0.0 < trial.inbound_fraction < 1.0
            assert 0.0 < trial.outbound_fraction < 1.0
            assert 0 < trial.offloadable_networks < 800
            assert len(trial.expansion) <= 4
            assert trial.expansion  # at least one IXP gains traffic

    def test_summaries_and_consensus(self, result):
        (stats,) = aggregate(TINY, result).values()
        assert stats["inbound_fraction"].n == 3
        assert 0 < stats["inbound_fraction"].mean < 1
        (trials,) = result.by_variant().values()
        consensus = expansion_consensus(trials)
        assert consensus
        ixp, agreement = consensus[0]
        assert ixp in {t.expansion[0] for t in trials}
        assert 0 < agreement <= 1.0

    def test_deterministic(self, result):
        again = run_tiny(seeds=(0, 1, 2))
        assert [t.expansion for t in again.trials] == [
            t.expansion for t in result.trials
        ]
        assert [t.inbound_fraction for t in again.trials] == [
            t.inbound_fraction for t in result.trials
        ]

    def test_report_renders(self, result):
        text = render_report(TINY, result)
        assert "Offload ensemble: 3 trials" in text
        assert "Greedy expansion consensus" in text
        assert "inbound offload" in text

    def test_single_trial_runs_inline(self):
        run = run_tiny(seeds=(4,))
        (trial,) = run.trials
        assert trial.seed == 4
        timing = run.timings[trial.trial_id]
        assert timing["build_s"] > 0 and timing["measure_s"] > 0


class TestOffloadEdgeCases:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.sim.offload_world import build_offload_world

        return build_offload_world(TINY_WORLD)

    def test_empty_peer_group_yields_zero_offload(self, world):
        """No candidates at all: masks are empty, greedy stops at one
        zero-gain step, fractions are exactly zero."""
        groups = PeerGroups(world=world, candidates=frozenset())
        estimator = OffloadEstimator(world, groups)
        ixps = estimator.reachable_ixps()
        assert estimator.offload_fractions(ixps, 4) == (0.0, 0.0)
        assert estimator.offloadable_network_count(ixps, 4) == 0
        steps = greedy_expansion(estimator, 4, max_ixps=5)
        assert len(steps) == 1  # alphabetical zero-gain step, then stop
        assert steps[0].gained_total_bps == 0.0

    def test_empty_traffic_matrix_is_structurally_valid(self):
        matrix = TrafficMatrix(
            inbound_bps=np.zeros(0), outbound_bps=np.zeros(0)
        )
        assert matrix.count == 0
        assert matrix.ranked("inbound").size == 0
        with pytest.raises(ConfigurationError):
            rank_profile_totals(0, TrafficMatrixConfig(), make_rng(0))

    def test_single_ixp_world_greedy(self, world):
        """A world whose reachable set is one IXP: the expansion is that
        IXP and its gain equals the single-IXP potential."""
        lone = dataclasses.replace(
            world, memberships={"AMS-IX": world.memberships["AMS-IX"]}
        )
        estimator = OffloadEstimator(lone, PeerGroups.build(lone))
        assert estimator.reachable_ixps() == ["AMS-IX"]
        steps = greedy_expansion(estimator, 4, max_ixps=5)
        assert [s.ixp for s in steps] == ["AMS-IX"]
        inbound, outbound = estimator.offload_bps(["AMS-IX"], 4)
        assert steps[0].gained_total_bps == pytest.approx(inbound + outbound)

    def test_mask_for_no_ixps_is_empty(self, world):
        estimator = OffloadEstimator(world, PeerGroups.build(world))
        mask = estimator.mask_for([], 4)
        assert mask.dtype == bool and not mask.any()

    def test_unknown_ixp_and_group_rejected(self, world):
        estimator = OffloadEstimator(world, PeerGroups.build(world))
        with pytest.raises(ConfigurationError):
            estimator.ixp_mask("NOPE-IX", 4)
        with pytest.raises(ConfigurationError):
            estimator.mask_for(["AMS-IX"], 9)


class TestOffloadEnsembleCLI:
    def test_small_run(self, capsys):
        from repro.cli import study_main

        assert study_main([
            "offload", "--preset", "small", "--seeds", "2", "--workers", "1",
            "--max-ixps", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Offload ensemble: 2 trials" in out
        assert "Greedy expansion consensus" in out

    def test_grid_run_with_groups(self, capsys):
        from repro.cli import study_main

        assert study_main([
            "offload", "--preset", "small", "--seeds", "2", "--workers", "1",
            "--groups", "1", "4", "--max-ixps", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "group=1" in out and "group=4" in out

    def test_bad_args(self):
        from repro.cli import study_main

        with pytest.raises(SystemExit):
            study_main(["offload", "--seeds", "0"])
        with pytest.raises(SystemExit):
            study_main(["offload", "--max-ixps", "0"])
