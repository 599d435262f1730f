"""Trial-axis batching (``StudyConfig.trial_batch``): the bit-exactness,
resume, and fallback contracts.

The batched engines realize whole seed batches through one builder
over shared statics (:func:`repro.sim.offload_world.build_offload_views`)
or as a GC-suspended group loop (detection), and the contract that makes them safe to enable anywhere is
*per-seed bit-identity*: a batched run must produce exactly the results
of k independent single-trial runs, modulo the timing fields.  These
suites pin that contract for all three world-view studies, the engine's
mid-batch resume behaviour, and the per-trial fallback accounting.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import asdict, dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ConfigVariant,
    DetectionStudy,
    EconomicsStudy,
    EconomicsVariant,
    OffloadStudy,
    OffloadVariant,
    StudyConfig,
    run_study,
)
from repro.experiments.engine import _artifact_path
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.scenarios import rediris_small_config

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal images
    HAVE_HYPOTHESIS = False

#: Fuzz-loop iterations when hypothesis is unavailable.
FUZZ_CASES = 20

def _detection_study() -> DetectionStudy:
    # One small IXP keeps the campaign fast while exercising the whole
    # build → collect → filter → validate pipeline per seed.
    return DetectionStudy(variants=(
        ConfigVariant(
            name="torix",
            world=DetectionWorldConfig(specs=(spec_by_acronym("TorIX"),)),
        ),
    ))


def _offload_study() -> OffloadStudy:
    return OffloadStudy(variants=(
        OffloadVariant(name="small", world=rediris_small_config(),
                       max_ixps=4),
    ))


def _economics_study() -> EconomicsStudy:
    return EconomicsStudy(variants=(
        EconomicsVariant(name="small", world=rediris_small_config()),
    ))


class TestBatchBitExactness:
    """A batched run equals k single-trial runs, field for field."""

    @pytest.mark.parametrize("k", (1, 2, 5))
    @pytest.mark.parametrize(
        "make_study", (_detection_study, _offload_study, _economics_study),
        ids=("detection", "offload", "economics"),
    )
    def test_batched_equals_pertrial(self, make_study, k):
        seeds = tuple(range(3, 3 + k))
        batched = run_study(
            make_study(),
            StudyConfig(seeds=seeds, workers=1, trial_batch=k),
        )
        pertrial = run_study(
            make_study(), StudyConfig(seeds=seeds, workers=1)
        )
        assert batched.batch_fallbacks == 0
        assert not batched.failures and not pertrial.failures
        assert [asdict(t) for t in batched.trials] == [
            asdict(t) for t in pertrial.trials
        ]

    def test_batch_larger_than_seed_list_is_one_chunk(self):
        result = run_study(
            _offload_study(),
            StudyConfig(seeds=(0, 1), workers=1, trial_batch=16),
        )
        assert len(result.trials) == 2
        assert result.batch_fallbacks == 0

    def test_trial_batch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(0,), trial_batch=0)


class TestMidBatchResume:
    """Killing a batched run mid-batch resumes without recomputing
    completed trials or changing any result."""

    def test_kill_inside_second_batch_resumes_identically(self):
        study = _offload_study()
        seeds = tuple(range(5))
        with tempfile.TemporaryDirectory() as out_dir:
            config = StudyConfig(
                seeds=seeds, workers=1, trial_batch=2, out_dir=out_dir
            )
            full = run_study(study, config)
            path = _artifact_path(study, out_dir)
            lines = path.read_text().splitlines(keepends=True)
            # Header + 3 trial rows: the cut lands inside the second
            # 2-seed batch, the state a mid-batch kill leaves behind.
            path.write_text("".join(lines[:4]))

            resumed = run_study(study, config)
            assert resumed.resumed == 3
            assert [asdict(t) for t in resumed.trials] == [
                asdict(t) for t in full.trials
            ]
            # The healed artifact carries every trial exactly once.
            trial_ids = sorted(
                json.loads(line)["trial_id"]
                for line in path.read_text().splitlines()
                if line and "trial_id" in json.loads(line)
            )
            assert trial_ids == [t.trial_id for t in full.trials]


# -- engine-level properties on a cheap batchable toy study --------------------


@dataclass(frozen=True, slots=True)
class _Spec:
    trial_id: int
    variant: str
    seed: int
    scale: float


@dataclass(frozen=True, slots=True)
class _Result:
    trial_id: int
    variant: str
    seed: int
    value: float


@dataclass(frozen=True, slots=True)
class BatchToyStudy:
    """value = scale·seed² — deterministic in the spec, trivially cheap.

    ``fail_batches`` makes ``run_batch`` raise, exercising the engine's
    per-trial fallback path.
    """

    scales: tuple[tuple[str, float], ...] = (("a", 1.0), ("b", 2.0))
    fail_batches: bool = False

    name = "batchtoy"

    def variant_names(self):
        return tuple(name for name, _ in self.scales)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed,
                     scale=dict(self.scales)[variant])

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed}

    def measure(self, spec, world):
        assert world["seed"] == spec.seed
        return _Result(trial_id=spec.trial_id, variant=spec.variant,
                       seed=spec.seed, value=spec.scale * spec.seed**2)

    def run_batch(self, specs):
        if self.fail_batches:
            raise RuntimeError("batch engine down")
        return [self.measure(spec, self.build(spec)) for spec in specs]

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


@dataclass(frozen=True, slots=True)
class SlowBatchStudy(BatchToyStudy):
    """A one-variant ``BatchToyStudy`` whose batch costs ``seed_sleep_s``
    per seed — well inside a per-trial budget for every seed it holds."""

    scales: tuple[tuple[str, float], ...] = (("a", 1.0),)
    seed_sleep_s: float = 0.05

    def run_batch(self, specs):
        time.sleep(self.seed_sleep_s * len(specs))
        return BatchToyStudy.run_batch(self, specs)


def check_batched_aggregates_match(seeds: list[int], k: int) -> None:
    study = BatchToyStudy()
    batched = run_study(
        study, StudyConfig(seeds=tuple(seeds), workers=1, trial_batch=k)
    )
    pertrial = run_study(study, StudyConfig(seeds=tuple(seeds), workers=1))
    assert batched.batch_fallbacks == 0
    assert [asdict(t) for t in batched.trials] == [
        asdict(t) for t in pertrial.trials
    ]
    assert batched.streaming == pertrial.streaming


class TestBatchFallbackAccounting:
    def test_failing_batches_fall_back_per_trial(self):
        study = BatchToyStudy(fail_batches=True)
        result = run_study(
            study, StudyConfig(seeds=(0, 1, 2, 3, 4), workers=1,
                               trial_batch=2)
        )
        pertrial = run_study(
            BatchToyStudy(), StudyConfig(seeds=(0, 1, 2, 3, 4), workers=1)
        )
        assert [asdict(t) for t in result.trials] == [
            asdict(t) for t in pertrial.trials
        ]
        # Chunks of 2-2-1 per variant: the singleton chunks never call
        # run_batch, so only the four two-seed chunks fall back.
        assert result.batch_fallbacks == 8
        note = result.coverage_note()
        assert note is not None and "fell back" in note
        assert "quarantined" not in note

    def test_clean_batched_run_has_no_note(self):
        result = run_study(
            BatchToyStudy(), StudyConfig(seeds=(0, 1), workers=1,
                                         trial_batch=2)
        )
        assert result.batch_fallbacks == 0
        assert result.coverage_note() is None

    @pytest.mark.parametrize("fail_batches", (False, True))
    def test_rows_record_how_each_trial_ran(self, tmp_path, fail_batches):
        # Chunks of 2-1 per variant: a two-seed chunk's trials record
        # their share of the batch call; a singleton chunk, and every
        # trial of a batch that fell back, ran build + measure.
        study = BatchToyStudy(fail_batches=fail_batches)
        result = run_study(study, StudyConfig(
            seeds=(0, 1, 2), workers=1, trial_batch=2, out_dir=str(tmp_path),
        ))
        path = _artifact_path(study, str(tmp_path))
        rows = list(map(json.loads, path.read_text().splitlines()[1:]))
        kinds = {row["seed"]: set(row["timings"]) for row in rows}
        batched = {"build_s", "measure_s"} if fail_batches else {"batch_s"}
        assert kinds == {0: batched, 1: batched, 2: {"build_s", "measure_s"}}
        assert result.timings == {row["trial_id"]: row["timings"]
                                  for row in rows}

    def test_batch_deadline_scales_with_the_chunk(self):
        # 8 seeds at 50 ms each take 0.4 s as one batch; the per-trial
        # budget is 0.2 s, so the batch gets 8 x 0.2 s and never falls back.
        result = run_study(
            SlowBatchStudy(), StudyConfig(seeds=tuple(range(8)), workers=1,
                                          trial_batch=8, trial_timeout_s=0.2)
        )
        assert result.batch_fallbacks == 0
        assert result.failures == []
        assert len(result.trials) == 8


if HAVE_HYPOTHESIS:

    class TestBatchedAggregateProperty:
        @given(
            seeds=st.lists(st.integers(min_value=0, max_value=10_000),
                           unique=True, min_size=1, max_size=12),
            k=st.integers(min_value=1, max_value=6),
        )
        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def test_any_seed_list_any_batch_size(self, seeds, k):
            check_batched_aggregates_match(seeds, k)

else:  # pragma: no cover - exercised on minimal images

    class TestBatchedAggregateProperty:
        @pytest.mark.parametrize("case", range(FUZZ_CASES))
        def test_any_seed_list_any_batch_size(self, case):
            import numpy as np

            rng = np.random.default_rng(20_260_808 + case)
            size = int(rng.integers(1, 13))
            seeds = rng.choice(10_001, size=size, replace=False).tolist()
            check_batched_aggregates_match(
                [int(s) for s in seeds], int(rng.integers(1, 7))
            )
