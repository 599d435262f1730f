"""The joint detection→offload study and the scenario library."""

from __future__ import annotations

import pytest

from repro.core.offload import OffloadEstimator, PeerGroups
from repro.errors import ConfigurationError
from repro.experiments import (
    JointStudy,
    JointVariant,
    StudyConfig,
    aggregate,
    economics_grid_variants,
    expand_trials,
    get_scenario,
    render_report,
    resolve,
    run_study,
    scenario_names,
)
from repro.experiments.engine import _artifact_path
from repro.experiments.scenarios import SCENARIOS, scaled_behavior_rates
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig
from tests.engine_equivalence import tiny_offload_config

TORIX = (spec_by_acronym("TorIX"),)


def tiny_joint_variant(name="tiny", **overrides) -> JointVariant:
    values = dict(
        name=name,
        detection_world=DetectionWorldConfig(specs=TORIX),
        offload_world=tiny_offload_config(),
    )
    values.update(overrides)
    return JointVariant(**values)


def tiny_joint_study(*variants) -> JointStudy:
    return JointStudy(variants=variants or (tiny_joint_variant(),))


def run_inline(study, seeds=(0, 1), out_dir=None):
    return run_study(
        study, StudyConfig(seeds=tuple(seeds), workers=1, out_dir=out_dir)
    )


class TestJointValidation:
    def test_bad_group_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_joint_variant(group=7)

    def test_bad_remote_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_joint_variant(remote_fraction=1.5)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_joint_variant(percentile=0.0)

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ConfigurationError):
            JointStudy(variants=(tiny_joint_variant(), tiny_joint_variant()))

    def test_expansion_is_variant_major(self):
        study = tiny_joint_study(tiny_joint_variant("a"), tiny_joint_variant("b"))
        trials = expand_trials(study, (5, 6))
        assert [(t.variant, t.seed) for t in trials] == [
            ("a", 5), ("a", 6), ("b", 5), ("b", 6),
        ]
        # Worlds take the trial seed; the campaign stream is derived.
        assert trials[0].detection_world.seed == 5
        assert trials[0].offload_world.seed == 5
        assert trials[0].campaign.seed != 5


class TestJointTrial:
    @pytest.fixture(scope="class")
    def result(self):
        return run_inline(tiny_joint_study())

    def test_peer_map_invariants(self, result):
        for t in result.trials:
            assert t.realized_peer_count <= t.detected_peer_count
            assert t.realized_peer_count <= t.oracle_peer_count
            assert t.phantom_peer_count == (
                t.detected_peer_count - t.realized_peer_count
            )
            assert t.oracle_peer_count <= t.candidate_count

    def test_fraction_invariants(self, result):
        for t in result.trials:
            # Realized peers are a subset of both maps, so their cone
            # coverage — and offload — can never exceed either estimate.
            assert t.realized_fraction <= t.detected_fraction + 1e-12
            assert t.realized_fraction <= t.oracle_fraction + 1e-12
            assert 0.0 <= t.detected_fraction <= 1.0

    def test_billing_invariants(self, result):
        for t in result.trials:
            assert t.before_bill > 0
            assert t.realized_savings_fraction <= (
                t.believed_savings_fraction + 1e-9
            )
            assert t.billing_error == pytest.approx(
                t.believed_savings_fraction - t.realized_savings_fraction
            )

    def test_standalone_trial_matches_engine(self, result):
        study = tiny_joint_study()
        spec = expand_trials(study, (0, 1))[0]
        standalone = study.measure(spec, study.build(spec))
        engine_trial = result.trials[0]
        assert standalone.precision == engine_trial.precision
        assert standalone.recall == engine_trial.recall
        assert standalone.oracle_peer_count == engine_trial.oracle_peer_count
        assert standalone.detected_fraction == pytest.approx(
            engine_trial.detected_fraction
        )
        assert standalone.realized_savings_fraction == pytest.approx(
            engine_trial.realized_savings_fraction
        )

    def test_zero_remote_fraction_collapses_the_study(self):
        result = run_inline(
            tiny_joint_study(tiny_joint_variant(remote_fraction=0.0)),
            seeds=(0,),
        )
        (t,) = result.trials
        assert t.oracle_peer_count == 0
        assert t.oracle_fraction == 0.0
        assert t.realized_fraction == 0.0
        assert t.realized_savings_fraction == 0.0

    def test_full_remote_fraction_gap_is_pure_recall(self):
        """With every candidate remote, phantoms are impossible and the
        gap comes only from detection misses."""
        result = run_inline(
            tiny_joint_study(tiny_joint_variant(remote_fraction=1.0)),
            seeds=(0,),
        )
        (t,) = result.trials
        assert t.oracle_peer_count == t.candidate_count
        assert t.phantom_peer_count == 0
        assert t.offload_gap >= -1e-12
        assert t.believed_savings_fraction == pytest.approx(
            t.realized_savings_fraction
        )

    def test_world_family_shared_across_variants(self):
        result = run_inline(tiny_joint_study(
            tiny_joint_variant("g4", group=4),
            tiny_joint_variant("g1", group=1),
        ))
        # 2 variants x 2 seeds = 4 trials over 2 world-family builds.
        assert result.world_builds == 2
        assert result.world_reuses == 2

    def test_resume_identical_aggregates(self, tmp_path):
        study = tiny_joint_study()
        full = run_inline(study, out_dir=str(tmp_path))
        path = _artifact_path(study, str(tmp_path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))  # keep header + first trial
        resumed = run_inline(study, out_dir=str(tmp_path))
        assert resumed.resumed == 1
        assert aggregate(study, resumed) == aggregate(study, full)


class TestPeerGroupRestriction:
    @pytest.fixture(scope="class")
    def world_and_groups(self):
        from repro.sim.offload_world import build_offload_world

        world = build_offload_world(tiny_offload_config())
        return world, PeerGroups.build(world)

    def test_restrict_to_all_is_identity(self, world_and_groups):
        world, groups = world_and_groups
        same = groups.restrict(groups.candidates)
        assert same.candidates == groups.candidates
        assert same.top_selective == groups.top_selective

    def test_restrict_to_empty_kills_offload(self, world_and_groups):
        world, groups = world_and_groups
        estimator = OffloadEstimator(world, groups.restrict(frozenset()))
        ixps = estimator.reachable_ixps()
        assert estimator.offload_fractions(ixps, 4) == (0.0, 0.0)

    def test_restriction_is_monotone(self, world_and_groups):
        world, groups = world_and_groups
        subset = frozenset(sorted(groups.candidates)[: len(groups.candidates) // 2])
        restricted = OffloadEstimator(world, groups.restrict(subset))
        full = OffloadEstimator(world, groups)
        ixps = full.reachable_ixps()
        r_in, r_out = restricted.offload_fractions(ixps, 4)
        f_in, f_out = full.offload_fractions(ixps, 4)
        assert r_in <= f_in + 1e-12
        assert r_out <= f_out + 1e-12


class TestScenarioRegistry:
    def test_all_scenarios_registered(self):
        assert scenario_names() == (
            "behavior-stress", "exclusion-ablation", "price-plane", "joint",
            "failover", "churned-detection",
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("quantum-peering")

    def test_unknown_preset_rejected(self):
        # grid() builds at paper scale for any preset but "small"; the
        # request's preset option is what checks the name.
        with pytest.raises(ConfigurationError, match="preset"):
            resolve("scenario", {"name": "joint", "preset": "huge"})

    def test_runs_expose_study_and_config(self):
        expected_variants = {
            "behavior-stress": 5,
            "exclusion-ablation": 5,
            "price-plane": 9,
            "joint": 1,
            "failover": 5,
            "churned-detection": 5,
        }
        for name in SCENARIOS:
            label, study, config = resolve("scenario", {
                "name": name, "seeds": [0, 1], "workers": 1,
            })
            assert label == f"scenario:{name}"
            assert len(study.variant_names()) == expected_variants[name]
            assert config.seeds == (0, 1) and config.workers == 1
            assert len(expand_trials(study, config.seeds)) == \
                2 * expected_variants[name]

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_grid_rejects_preset_outside_presets(self, name):
        # A typo must not silently build the paper-scale grid.
        with pytest.raises(ConfigurationError, match="'Small'"):
            get_scenario(name).grid("Small")

    def test_behavior_stress_scales_rates(self):
        names = get_scenario("behavior-stress").grid("small").variant_names()
        assert names[0] == "stress=0.0x" and names[-1] == "stress=4.0x"
        rates = scaled_behavior_rates(2.0)
        from repro.sim.detection_world import BehaviorRates

        base = BehaviorRates()
        assert rates.os_change == pytest.approx(2 * base.os_change)
        assert rates.transient_congestion <= 0.6

    def test_negative_stress_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_behavior_rates(-1.0)

    def test_exclusion_ablation_toggles_rules(self):
        grid = get_scenario("exclusion-ablation").grid("small")
        by_name = {v.name: v for v in grid.variants}
        assert by_name["all-rules"].exclude_transit_providers
        assert not by_name["keep-providers"].exclude_transit_providers
        assert not any((
            by_name["no-exclusions"].exclude_transit_providers,
            by_name["no-exclusions"].exclude_home_ixp_members,
            by_name["no-exclusions"].exclude_geant_club,
        ))

    def test_price_plane_is_a_full_grid(self):
        grid = get_scenario("price-plane").grid("small")
        names = grid.variant_names()
        assert len(names) == 9
        assert "transit_price=3.0|remote_fixed=0.1" in names
        prices = {v.name: (v.transit_price, v.remote_fixed)
                  for v in grid.variants}
        assert len(set(prices.values())) == 9

    def test_joint_scenario_executes(self, tmp_path):
        from dataclasses import replace

        _, study, config = resolve("scenario", {
            "name": "joint", "seeds": [0, 1], "workers": 1,
        })
        result = run_study(study, replace(config, out_dir=str(tmp_path)))
        report = render_report(study, result)
        assert len(result.trials) == 2
        assert "Joint detection->offload ensemble" in report
        assert "detected offload" in report
        # The run left resumable artifacts behind.
        assert _artifact_path(study, str(tmp_path)).exists()


class TestEconomicsPriceAxes:
    def test_price_axis_sweeps_variant_fields(self):
        variants = economics_grid_variants(
            world=tiny_offload_config(),
            axes={"price.transit_price": (3.0, 5.0)},
        )
        assert [v.transit_price for v in variants] == [3.0, 5.0]
        assert [v.name for v in variants] == [
            "transit_price=3.0", "transit_price=5.0",
        ]

    def test_unknown_price_field_rejected(self):
        with pytest.raises(ConfigurationError):
            economics_grid_variants(axes={"price.port_rental": (1.0,)})

    def test_axis_conflicting_with_kwarg_rejected(self):
        with pytest.raises(ConfigurationError):
            economics_grid_variants(
                axes={"price.transit_price": (3.0,)}, transit_price=5.0
            )


class TestJointCLI:
    def test_scenarios_list(self, capsys):
        from repro.cli import scenarios_main

        assert scenarios_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_scenarios_run_joint_small(self, capsys):
        from repro.cli import scenarios_main

        assert scenarios_main([
            "run", "joint", "--preset", "small",
            "--seeds", "2", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Joint detection->offload ensemble: 2 trials" in out

    def test_scenarios_run_unknown_name_errors(self):
        from repro.cli import scenarios_main

        with pytest.raises(SystemExit):
            scenarios_main(["run", "quantum-peering"])

    def test_study_joint_dispatch(self, capsys):
        from repro.cli import main

        assert main([
            "study", "joint", "--preset", "small", "--seeds", "2",
            "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Peer map and billing" in out
        assert "billing forecast error" in out
