"""The generic study engine: expansion, caching, resume, aggregates."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ConfigVariant,
    DetectionStudy,
    EconomicsStudy,
    FailoverStudy,
    JointStudy,
    MeanCI,
    MegaStudy,
    OffloadStudy,
    StudyConfig,
    Trial,
    aggregate,
    expand_trials,
    grid_variants,
    mean_ci,
    run_study,
)
from repro.experiments.engine import (
    ARTIFACT_SCHEMA,
    _artifact_path,
    study_fingerprint,
)
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig
from tests.artifacts import read_artifact, write_v1_artifact

TORIX = (spec_by_acronym("TorIX"),)


@dataclass(frozen=True, slots=True)
class _ToySpec:
    trial_id: int
    variant: str
    seed: int
    scale: float


@dataclass(frozen=True, slots=True)
class ToyStudy:
    """A trivially-cheap study: value = scale * seed, world = per-seed dict."""

    scales: tuple[tuple[str, float], ...] = (("a", 1.0), ("b", 2.0))

    name = "toy"
    #: ``world_id`` is the id() of the built world: it exposes sharing.
    trial_fields = ("value", "world_id")

    def variant_names(self):
        return tuple(name for name, _ in self.scales)

    def resolve(self, variant, seed, trial_id):
        scale = dict(self.scales)[variant]
        return _ToySpec(trial_id=trial_id, variant=variant, seed=seed,
                        scale=scale)

    def world_key(self, spec):
        return spec.seed  # all variants share one "world" per seed

    def build(self, spec):
        return {"seed": spec.seed}

    def measure(self, spec, world):
        assert world["seed"] == spec.seed
        return Trial(spec.trial_id, spec.variant, spec.seed, {
            "value": spec.scale * spec.seed, "world_id": id(world),
        })

    def metrics(self, result):
        return {"value": result.values["value"]}


@dataclass(frozen=True, slots=True)
class BrokenSeedStudy(ToyStudy):
    """The toy study, except that seed 1's world never builds."""

    def build(self, spec):
        if spec.seed == 1:
            raise RuntimeError("seed 1 cannot build")
        return ToyStudy.build(self, spec)


class TestExpansion:
    def test_variant_major_stable_ids(self):
        specs = expand_trials(ToyStudy(), (3, 4))
        assert [(s.variant, s.seed) for s in specs] == [
            ("a", 3), ("a", 4), ("b", 3), ("b", 4),
        ]
        assert [s.trial_id for s in specs] == [0, 1, 2, 3]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=())
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(1, 1))
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(1,), workers=-1)


class TestWorldCache:
    def test_shared_world_per_key(self):
        result = run_study(ToyStudy(), StudyConfig(seeds=(1, 2, 3), workers=1))
        # 2 variants x 3 seeds = 6 trials over 3 worlds.
        assert result.world_builds == 3
        assert result.world_reuses == 3
        by_seed: dict[int, set[int]] = {}
        for trial in result.trials:
            by_seed.setdefault(trial.seed, set()).add(trial.values["world_id"])
        # Both variants of one seed saw the *same* world object.  (Across
        # seeds the ids are not comparable — a freed group's world can be
        # reallocated at the same address.)
        assert all(len(ids) == 1 for ids in by_seed.values())

    def test_results_in_trial_order(self):
        result = run_study(ToyStudy(), StudyConfig(seeds=(5, 6), workers=1))
        assert [t.trial_id for t in result.trials] == [0, 1, 2, 3]
        assert [t.values["value"] for t in result.trials] == [
            5.0, 6.0, 10.0, 12.0,
        ]

    @pytest.mark.parametrize(
        "trial_batch, workers", [(1, 1), (3, 1), (1, 2)],
        ids=("batch-1", "batch-3", "pool-2"),
    )
    def test_failed_build_is_not_counted(self, trial_batch, workers):
        result = run_study(BrokenSeedStudy(), StudyConfig(
            seeds=(0, 1, 2), workers=workers, trial_batch=trial_batch,
        ))
        assert [(f.variant, f.seed) for f in result.failures] == [
            ("a", 1), ("b", 1),
        ]
        # Seeds 0 and 2 built one world each, which both variants used;
        # seed 1's group built nothing and measured nothing.
        assert result.world_builds == 2
        assert result.world_reuses == 2

    @pytest.mark.slow
    def test_parallel_matches_inline(self):
        inline = run_study(ToyStudy(), StudyConfig(seeds=(1, 2), workers=1))
        pooled = run_study(ToyStudy(), StudyConfig(seeds=(1, 2), workers=2))
        assert [t.values["value"] for t in pooled.trials] == [
            t.values["value"] for t in inline.trials
        ]
        assert pooled.world_builds == 2 and pooled.world_reuses == 2
        # The aggregates follow trial order, not completion order.
        assert aggregate(ToyStudy(), pooled) == aggregate(ToyStudy(), inline)


class TestAggregate:
    def test_single_sample_zero_width(self):
        result = run_study(ToyStudy(), StudyConfig(seeds=(7,), workers=1))
        assert aggregate(ToyStudy(), result)["a"]["value"] == MeanCI(
            7.0, 0.0, 1
        )

    def test_one_mean_ci_per_variant_and_metric(self):
        result = run_study(ToyStudy(), StudyConfig(seeds=(1, 2, 3), workers=1))
        # One mean_ci per variant and metric, over its trials in order.
        assert aggregate(ToyStudy(), result) == {
            "a": {"value": mean_ci([1.0, 2.0, 3.0])},
            "b": {"value": mean_ci([2.0, 4.0, 6.0])},
        }

    def test_a_run_is_not_aggregated(self, monkeypatch):
        def refuse(self, result):
            raise AssertionError("execute_study called Study.metrics")

        monkeypatch.setattr(ToyStudy, "metrics", refuse)
        result = run_study(ToyStudy(), StudyConfig(seeds=(1, 2), workers=1))
        assert len(result.trials) == 4


class TestResume:
    def test_kill_and_rerun_identical(self, tmp_path):
        study = ToyStudy()
        config = StudyConfig(seeds=(1, 2, 3), workers=1,
                             out_dir=str(tmp_path))
        full = run_study(study, config)
        path = _artifact_path(study, str(tmp_path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 6  # header + one line per trial

        # Simulate a kill after the first group (plus a truncated partial
        # line).  Artifacts land in group order, so the first two lines
        # are seed 1's trials across both variants.
        path.write_text("".join(lines[:3]) + '{"trial_id": 2, "vari')
        resumed = run_study(study, config)
        assert resumed.resumed == 2
        assert resumed.world_builds == 2  # seed 1 done; seeds 2,3 rebuilt
        assert [t.values["value"] for t in resumed.trials] == [
            t.values["value"] for t in full.trials
        ]
        # The aggregates cover resumed trials too, bit for bit.
        assert aggregate(study, resumed) == aggregate(study, full)

        # A third run finds everything done and executes nothing.
        again = run_study(study, config)
        assert again.resumed == 6
        assert again.world_builds == 0 and again.world_reuses == 0
        assert [t.values["value"] for t in again.trials] == [
            t.values["value"] for t in full.trials
        ]

    def test_different_configs_coexist_per_fingerprint(self, tmp_path):
        # Artifacts are content-addressed, so two configurations of the
        # same study share one out_dir without colliding — and each
        # resumes from its own file.
        study = ToyStudy()
        small = StudyConfig(seeds=(1,), workers=1, out_dir=str(tmp_path))
        large = StudyConfig(seeds=(1, 2), workers=1, out_dir=str(tmp_path))
        run_study(study, small)
        first = run_study(study, large)
        assert first.resumed == 0  # distinct fingerprint: a fresh artifact
        fp_small = study_fingerprint(study, small.seeds)
        fp_large = study_fingerprint(study, large.seeds)
        assert fp_small != fp_large
        assert _artifact_path(study, str(tmp_path), fp_small).exists()
        assert _artifact_path(study, str(tmp_path), fp_large).exists()
        # Reruns of either configuration are pure store hits.
        assert run_study(study, small).resumed == 2
        assert run_study(study, large).resumed == 4

    def test_legacy_artifact_resumed_in_place(self, tmp_path):
        # A pre-content-addressing artifact (no fingerprint in the name)
        # whose header matches the configuration keeps working as-is.
        study = ToyStudy()
        config = StudyConfig(seeds=(1, 2), workers=1, out_dir=str(tmp_path))
        run_study(study, config)
        fingerprint = study_fingerprint(study, config.seeds)
        modern = _artifact_path(study, str(tmp_path), fingerprint)
        legacy = tmp_path / f"{study.name}_trials.jsonl"
        modern.rename(legacy)
        resumed = run_study(study, config)
        assert resumed.resumed == 4
        assert not modern.exists()  # appends stay on the legacy file
        # A different configuration ignores the mismatched legacy file
        # and starts its own content-addressed artifact beside it.
        other = run_study(
            study, StudyConfig(seeds=(3,), workers=1, out_dir=str(tmp_path))
        )
        assert other.resumed == 0
        assert legacy.exists()

    def test_non_artifact_file_rejected(self, tmp_path):
        study = ToyStudy()
        _artifact_path(study, str(tmp_path)).write_text("not json\n")
        with pytest.raises(ConfigurationError):
            run_study(study, StudyConfig(seeds=(1,), workers=1,
                                         out_dir=str(tmp_path)))

    @pytest.mark.parametrize("first_line", ["[]", "7", '"x"'])
    def test_non_object_header_rejected(self, tmp_path, first_line):
        # Valid JSON that is not an object cannot be an artifact header.
        study = ToyStudy()
        config = StudyConfig(seeds=(1,), workers=1, out_dir=str(tmp_path))
        path = _artifact_path(study, str(tmp_path),
                              study_fingerprint(study, config.seeds))
        path.write_text(first_line + "\n")
        with pytest.raises(ConfigurationError):
            run_study(study, config)


class TestDetectionOnEngine:
    """The ported detection study: same numbers through every front end."""

    STUDY = DetectionStudy(variants=(
        ConfigVariant(name="tiny", world=DetectionWorldConfig(specs=TORIX)),
    ))

    def _run(self, study=STUDY, out_dir=None):
        return run_study(
            study, StudyConfig(seeds=(0, 1), workers=1, out_dir=out_dir)
        )

    def test_run_ensemble_reports_cache_stats(self):
        result = self._run()
        # One variant: every seed's world is built exactly once.
        assert result.world_builds == 2 and result.world_reuses == 0

    def test_threshold_grid_shares_worlds(self):
        study = DetectionStudy(variants=grid_variants(
            world=DetectionWorldConfig(specs=TORIX),
            axes={"campaign.remoteness_threshold_ms": (5.0, 10.0)},
        ))
        result = self._run(study)
        # 2 variants x 2 seeds = 4 trials over 2 worlds.
        assert result.world_builds == 2 and result.world_reuses == 2
        # Shared-world trials still match a standalone build + measure.
        spec = expand_trials(study, (0, 1))[0]
        standalone = study.measure(spec, study.build(spec))
        assert result.trials[0] == standalone

    def test_detection_resume_identical_aggregates(self, tmp_path):
        full = self._run(out_dir=str(tmp_path))
        path = _artifact_path(self.STUDY, str(tmp_path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))  # keep header + first trial
        resumed = self._run(out_dir=str(tmp_path))
        assert resumed.resumed == 1
        assert aggregate(self.STUDY, resumed) == aggregate(self.STUDY, full)


#: The phase-seconds fields a parent-format (v1) detection result carried.
V1_DETECTION_TIMINGS = {"build_s": 0.25, "collect_s": 0.5, "filter_s": 0.125}


class TestTrialTimings:
    """Timings live next to the results: on artifact rows and in the run."""

    STUDY = TestDetectionOnEngine.STUDY

    def _run(self, out_dir):
        return run_study(
            self.STUDY, StudyConfig(seeds=(0, 1), workers=1, out_dir=out_dir)
        )

    def test_fresh_rows_carry_timings_beside_the_result(self, tmp_path):
        result = self._run(str(tmp_path))
        header, rows = read_artifact(_artifact_path(self.STUDY, str(tmp_path)))
        assert header["schema"] == ARTIFACT_SCHEMA == "study_trials/v2"
        assert len(rows) == 2
        for row in rows:
            assert set(row["timings"]) == {"build_s", "measure_s"}
            assert all(value > 0 for value in row["timings"].values())
            assert not [key for key in row["result"] if key.endswith("_s")]
        assert result.timings == {row["trial_id"]: row["timings"]
                                  for row in rows}

    @pytest.mark.parametrize("kept", [2, 1])
    def test_v1_artifact_resumes_with_its_timings_mapped(self, tmp_path, kept):
        fresh = self._run(str(tmp_path))
        path = _artifact_path(self.STUDY, str(tmp_path))
        header, rows = read_artifact(path)
        write_v1_artifact(path, header, rows[:kept], V1_DETECTION_TIMINGS)

        resumed = self._run(str(tmp_path))
        assert resumed.resumed == kept
        assert resumed.trials == fresh.trials
        assert aggregate(self.STUDY, resumed) == aggregate(self.STUDY, fresh)
        for trial_id in range(kept):
            assert resumed.timings[trial_id] == V1_DETECTION_TIMINGS
        # A v1 artifact resumed in part takes v2 rows from then on, and
        # the mixed file still reads back whole.
        again = self._run(str(tmp_path))
        assert again.resumed == 2
        assert again.trials == fresh.trials
        assert again.timings == resumed.timings

    def test_v1_study_seconds_become_measure_seconds(self, tmp_path):
        study = ToyStudy()
        config = StudyConfig(seeds=(1, 2), workers=1, out_dir=str(tmp_path))
        fresh = run_study(study, config)
        path = _artifact_path(study, str(tmp_path))
        header, rows = read_artifact(path)
        write_v1_artifact(path, header, rows,
                          {"build_s": 0.5, "study_s": 0.25})
        resumed = run_study(study, config)
        assert resumed.resumed == 4
        assert resumed.trials == fresh.trials
        assert set(resumed.timings) == {0, 1, 2, 3}
        assert all(timing == {"build_s": 0.5, "measure_s": 0.25}
                   for timing in resumed.timings.values())


def test_no_result_type_carries_a_timing_field():
    timing = {"build_s", "study_s", "collect_s", "filter_s"}
    for study_type in (DetectionStudy, OffloadStudy, EconomicsStudy,
                       JointStudy, FailoverStudy, MegaStudy):
        assert not set(study_type.trial_fields) & timing, study_type.name
