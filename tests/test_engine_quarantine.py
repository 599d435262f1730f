"""Crash tolerance in the study engine: quarantine, timeout, pool restart.

A poison trial must cost exactly one ``failed`` JSONL row — never the
study.  These tests inject deterministic failures (always-raise,
raise-once, sleep-forever, kill-the-worker) and assert the engine
finishes with correct aggregates over the survivors, resume-safe
artifacts, and at most one executor restart.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments.aggregate import aggregate
from repro.experiments.engine import (
    StudyConfig,
    TrialFailure,
    _artifact_path,
    run_study,
)


@dataclass(frozen=True, slots=True)
class _Spec:
    trial_id: int
    variant: str
    seed: int


@dataclass(frozen=True, slots=True)
class _Result:
    trial_id: int
    variant: str
    seed: int
    value: float


@dataclass(frozen=True, slots=True)
class CrashStudy:
    """``ok`` trials return seed; ``boom`` trials with the poison seed raise.

    ``sleep_s`` > 0 makes the poison trial hang instead of raising, and
    ``marker_dir`` (flaky mode) makes it fail only while no marker file
    exists — the second attempt succeeds.
    """

    poison_seed: int = 2
    sleep_s: float = 0.0
    marker_dir: str = ""
    build_poison: bool = False

    name = "crash"

    def variant_names(self):
        return ("ok", "boom")

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed  # both variants share one group per seed

    def build(self, spec):
        if self.build_poison and spec.seed == self.poison_seed:
            raise RuntimeError("poison build")
        return {"seed": spec.seed}

    def measure(self, spec, world):
        if spec.variant == "boom" and spec.seed == self.poison_seed:
            if self.marker_dir:
                marker = os.path.join(self.marker_dir, "attempted")
                if not os.path.exists(marker):
                    with open(marker, "w") as fh:
                        fh.write("1")
                    raise RuntimeError("flaky trial")
            elif self.sleep_s:
                time.sleep(self.sleep_s)
            else:
                raise RuntimeError("poison trial")
        return _Result(
            trial_id=spec.trial_id, variant=spec.variant, seed=spec.seed,
            value=float(spec.seed),
        )

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


@dataclass(frozen=True, slots=True)
class KillerStudy:
    """One trial hard-kills its worker process — once, marker-gated."""

    marker_dir: str = ""

    name = "killer"

    def variant_names(self):
        return ("base",)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed}

    def measure(self, spec, world):
        if spec.seed == 2:
            marker = os.path.join(self.marker_dir, "killed")
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write("1")
                os._exit(1)  # simulate an OOM-killed worker, no traceback
        return _Result(
            trial_id=spec.trial_id, variant=spec.variant, seed=spec.seed,
            value=float(spec.seed),
        )

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


class TestQuarantine:
    def test_poison_trial_is_quarantined(self):
        result = run_study(CrashStudy(), StudyConfig(seeds=(1, 2, 3),
                                                     workers=1))
        assert len(result.trials) == 5
        (failure,) = result.failures
        assert isinstance(failure, TrialFailure)
        assert (failure.variant, failure.seed) == ("boom", 2)
        assert failure.error == "RuntimeError: poison trial"
        # The poison trial's group-mates still ran (satellite: a worker
        # raising mid-group must not sink the group).
        assert [(t.variant, t.seed) for t in result.trials] == [
            ("ok", 1), ("ok", 2), ("ok", 3), ("boom", 1), ("boom", 3),
        ]
        # Aggregates cover the survivors only.
        assert aggregate(CrashStudy(), result)["boom"]["value"].n == 2
        note = result.coverage_note()
        assert note is not None and "1 of 6 trials failed" in note

    def test_clean_study_has_no_coverage_note(self):
        result = run_study(CrashStudy(poison_seed=99),
                           StudyConfig(seeds=(1,), workers=1))
        assert result.failures == []
        assert result.coverage_note() is None

    def test_configuration_errors_always_propagate(self):
        @dataclass(frozen=True, slots=True)
        class BadStudy(CrashStudy):
            def measure(self, spec, world):
                raise ConfigurationError("malformed grid")

        with pytest.raises(ConfigurationError):
            run_study(BadStudy(), StudyConfig(seeds=(1,), workers=1))

    def test_build_failure_quarantines_the_group(self):
        result = run_study(
            CrashStudy(build_poison=True),
            StudyConfig(seeds=(1, 2), workers=1),
        )
        # Seed 2's whole group (both variants) failed; seed 1 survived.
        assert sorted((f.variant, f.seed) for f in result.failures) == [
            ("boom", 2), ("ok", 2),
        ]
        assert [(t.variant, t.seed) for t in result.trials] == [
            ("ok", 1), ("boom", 1),
        ]
        # A failed build times nothing: only survivors carry timings.
        assert set(result.timings) == {t.trial_id for t in result.trials}

    def test_retry_rescues_a_flaky_trial(self, tmp_path):
        result = run_study(
            CrashStudy(marker_dir=str(tmp_path)),
            StudyConfig(seeds=(1, 2), workers=1, trial_retries=1),
        )
        assert result.failures == []
        assert len(result.trials) == 4
        assert os.path.exists(tmp_path / "attempted")  # it did fail once

    def test_failure_records_the_attempt_count(self):
        result = run_study(
            CrashStudy(), StudyConfig(seeds=(2,), workers=1,
                                      trial_retries=2),
        )
        (failure,) = result.failures
        assert failure.attempts == 3

    def test_timeout_quarantines_a_hung_trial(self):
        result = run_study(
            CrashStudy(sleep_s=5.0),
            StudyConfig(seeds=(1, 2), workers=1, trial_timeout_s=0.2),
        )
        (failure,) = result.failures
        assert (failure.variant, failure.seed) == ("boom", 2)
        assert "Timeout" in failure.error
        assert len(result.trials) == 3


class TestFailedArtifacts:
    def test_failed_row_schema_and_resume(self, tmp_path):
        study = CrashStudy()
        config = StudyConfig(seeds=(1, 2, 3), workers=1,
                             out_dir=str(tmp_path))
        first = run_study(study, config)
        assert len(first.failures) == 1

        rows = [
            json.loads(line)
            for line in _artifact_path(study, str(tmp_path))
            .read_text().splitlines()[1:]
        ]
        (failed,) = [r for r in rows if r.get("status") == "failed"]
        assert failed == {
            "trial_id": failed["trial_id"], "variant": "boom", "seed": 2,
            "status": "failed", "error": "RuntimeError: poison trial",
            "attempts": 1,
        }
        # Success rows carry the scheduler's timings; the failure row
        # above carries none.
        succeeded = [r for r in rows if r.get("status") != "failed"]
        assert all(set(r["timings"]) == {"build_s", "measure_s"}
                   for r in succeeded)
        assert first.timings == {r["trial_id"]: r["timings"]
                                 for r in succeeded}

        # Resume: the failed row is loaded, not re-run, and aggregates
        # match the first pass.
        again = run_study(study, config)
        assert again.resumed == 6
        assert again.world_builds == 0
        (failure,) = again.failures
        assert (failure.variant, failure.seed, failure.error) == (
            "boom", 2, "RuntimeError: poison trial",
        )
        assert [t.value for t in again.trials] == [
            t.value for t in first.trials
        ]
        assert aggregate(study, again)["boom"]["value"].n == 2
        assert again.timings == first.timings


@pytest.mark.slow
class TestPoolRestart:
    def test_killed_worker_restarts_the_pool_once(self, tmp_path):
        study = KillerStudy(marker_dir=str(tmp_path))
        config = StudyConfig(seeds=(1, 2, 3, 4), workers=2,
                             out_dir=str(tmp_path))
        result = run_study(study, config)
        assert result.pool_restarts == 1
        assert result.failures == []
        assert "worker pool broke and was restarted 1 time(s)" in \
            result.coverage_note()
        assert sorted(t.seed for t in result.trials) == [1, 2, 3, 4]
        # The artifact file is consistent for a clean resume.
        again = run_study(study, config)
        assert again.resumed == 4

    def test_pooled_quarantine_matches_inline(self, tmp_path):
        inline = run_study(CrashStudy(), StudyConfig(seeds=(1, 2, 3),
                                                     workers=1))
        pooled = run_study(CrashStudy(), StudyConfig(seeds=(1, 2, 3),
                                                     workers=2))
        assert [t.value for t in pooled.trials] == [
            t.value for t in inline.trials
        ]
        assert [(f.variant, f.seed) for f in pooled.failures] == [
            ("boom", 2)
        ]
