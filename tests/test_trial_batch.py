"""Seed batches (``StudyConfig.trial_batch``): up to k world-key groups
per work item, run in turn under one GC pause.

Each group of a batched item builds its world, measures every trial
against it and drops it before the next build, so a batched run must
equal the unbatched one in everything but its GC pauses: the results
field for field, the world builds (one per seed, whatever the grid),
the per-trial timings, and the deadline, retry and quarantine of every
trial.  These suites pin that for the three array-world studies, the
grids whose variants share a world, a mid-batch resume, a poison seed
inside a batch, the shared-memory transport and the peak heap.
"""

from __future__ import annotations

import json
import tempfile
import time
import tracemalloc
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
from repro.experiments.mega import MegaStudy, MegaVariant
from repro.experiments.requests import resolve
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.megatopo import MegaWorldConfig
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


def _rows(study, out_dir: str) -> list[dict]:
    path = _artifact_path(study, out_dir)
    return [json.loads(line) for line in path.read_text().splitlines()[1:]]


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
        assert not batched.failures and not pertrial.failures
        assert [asdict(t) for t in batched.trials] == [
            asdict(t) for t in pertrial.trials
        ]
        assert batched.world_builds == pertrial.world_builds == k

    def test_batch_larger_than_seed_list_is_one_chunk(self):
        result = run_study(
            _offload_study(),
            StudyConfig(seeds=(0, 1), workers=1, trial_batch=16),
        )
        assert len(result.trials) == 2
        assert result.world_builds == 2

    def test_trial_batch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(seeds=(0,), trial_batch=0)


class TestGridsBuildOneWorldPerSeed:
    """Variants that share a world build it once per seed, batched or not."""

    @staticmethod
    def _check(kind: str, request: dict, seeds: int) -> None:
        runs = {}
        for k in (1, 16):
            _, study, config = resolve(
                kind, {**request, "seeds": {"count": seeds, "offset": 5},
                       "workers": 1, "trial_batch": k},
            )
            runs[k] = run_study(study, config)
        for result in runs.values():
            assert not result.failures
            assert result.world_builds == seeds
            assert result.world_reuses == len(result.trials) - seeds
        assert runs[16].trials == runs[1].trials

    def test_threshold_grid(self):
        self._check("detection", {"threshold_ms": [5, 10, 20]}, seeds=8)

    def test_price_plane(self):
        self._check("scenario", {"name": "price-plane"}, seeds=4)


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


# -- engine-level properties on a cheap toy study -----------------------------


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
class ToyStudy:
    """value = scale·seed² — deterministic in the spec, trivially cheap.

    Both variants of a seed share its world.  Measuring a seed in
    ``poison_seeds`` always raises; measuring one in ``slow_seeds``
    sleeps ``slow_s`` first, and every other seed ``sleep_s``.
    """

    scales: tuple[tuple[str, float], ...] = (("a", 1.0), ("b", 2.0))
    poison_seeds: tuple[int, ...] = ()
    slow_seeds: tuple[int, ...] = ()
    sleep_s: float = 0.0
    slow_s: float = 0.0

    name = "toy"

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
        if spec.seed in self.poison_seeds:
            raise RuntimeError(f"seed {spec.seed} is poison")
        time.sleep(self.slow_s if spec.seed in self.slow_seeds
                   else self.sleep_s)
        return _Result(trial_id=spec.trial_id, variant=spec.variant,
                       seed=spec.seed, value=spec.scale * spec.seed**2)

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


@dataclass(frozen=True)
class PoisonEconomicsStudy(EconomicsStudy):
    """The economics study, except that seed 2 never measures."""

    def measure(self, spec, world):
        if spec.seed == 2:
            raise RuntimeError("seed 2 is poison")
        return EconomicsStudy.measure(self, spec, world)


def check_batched_aggregates_match(seeds: list[int], k: int) -> None:
    study = ToyStudy()
    batched = run_study(
        study, StudyConfig(seeds=tuple(seeds), workers=1, trial_batch=k)
    )
    pertrial = run_study(study, StudyConfig(seeds=tuple(seeds), workers=1))
    assert [asdict(t) for t in batched.trials] == [
        asdict(t) for t in pertrial.trials
    ]
    assert batched.streaming == pertrial.streaming
    assert batched.world_builds == pertrial.world_builds == len(seeds)


class TestBatchFallbackAccounting:
    """A batch never falls back: each of its trials runs the per-trial
    path, so ``batch_fallbacks`` stays 0 and a failure stays one trial's."""

    def test_poison_seed_is_quarantined_alone(self):
        # Items of seeds 0-3 and 4; seed 2 raises on every attempt.
        config = StudyConfig(seeds=(0, 1, 2, 3, 4), workers=1,
                             trial_batch=4, trial_retries=1)
        result = run_study(ToyStudy(poison_seeds=(2,)), config)
        clean = run_study(ToyStudy(), config)
        assert [(f.seed, f.attempts) for f in result.failures] == [
            (2, 2), (2, 2),
        ]
        assert result.trials == [t for t in clean.trials if t.seed != 2]
        assert result.batch_fallbacks == 0
        note = result.coverage_note()
        assert note is not None and "quarantined" in note
        assert "fell back" not in note

    def test_poison_seed_in_an_economics_batch(self):
        study = PoisonEconomicsStudy(variants=_economics_study().variants)
        config = StudyConfig(seeds=(0, 1, 2, 3), workers=1, trial_batch=4,
                             trial_retries=1)
        result = run_study(study, config)
        clean = run_study(_economics_study(), config)
        assert [(f.seed, f.attempts) for f in result.failures] == [(2, 2)]
        assert result.trials == [t for t in clean.trials if t.seed != 2]
        assert result.batch_fallbacks == 0

    def test_clean_batched_run_has_no_note(self):
        result = run_study(
            ToyStudy(), StudyConfig(seeds=(0, 1), workers=1, trial_batch=2)
        )
        assert result.batch_fallbacks == 0
        assert result.coverage_note() is None

    @pytest.mark.parametrize("poison", (False, True))
    def test_rows_record_how_each_trial_ran(self, tmp_path, poison):
        # Every batched trial records its own world's build and its own
        # measure; a quarantined one records no timings at all.
        study = ToyStudy(poison_seeds=(1,) if poison else ())
        result = run_study(study, StudyConfig(
            seeds=(0, 1, 2), workers=1, trial_batch=2, out_dir=str(tmp_path),
        ))
        rows = _rows(study, str(tmp_path))
        assert len(rows) == 6
        for row in rows:
            if poison and row["seed"] == 1:
                assert row["status"] == "failed" and "timings" not in row
            else:
                assert set(row["timings"]) == {"build_s", "measure_s"}
        assert result.timings == {row["trial_id"]: row["timings"]
                                  for row in rows if "timings" in row}

    def test_batch_deadline_is_per_trial(self):
        # Seven seeds at 2 x 50 ms take 0.7 s of one item, well over the
        # 0.2 s budget, which each trial gets on its own: only seed 5,
        # whose trials sleep 1 s, blows it.
        result = run_study(
            ToyStudy(sleep_s=0.05, slow_seeds=(5,), slow_s=1.0),
            StudyConfig(seeds=tuple(range(8)), workers=1, trial_batch=8,
                        trial_timeout_s=0.2),
        )
        assert [f.seed for f in result.failures] == [5, 5]
        assert all("deadline" in f.error for f in result.failures)
        assert len(result.trials) == 14


class TestBatchedMemory:
    """One world in memory at a time: a batch's peak heap is one world's."""

    def test_peak_heap_matches_unbatched(self):
        study = _economics_study()
        seeds = tuple(range(20, 28))
        # Warm the variant's statics and the modules' lazy tables, which
        # the first run allocates once for the process.
        run_study(study, StudyConfig(seeds=(99,), workers=1))

        def peak(trial_batch: int) -> int:
            tracemalloc.start()
            try:
                result = run_study(study, StudyConfig(
                    seeds=seeds, workers=1, trial_batch=trial_batch,
                ))
                assert len(result.trials) == len(seeds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = peak(1)
        assert peak(8) <= 1.05 * single


class TestBatchedTransport:
    def test_shm_keeps_its_items_at_any_batch(self):
        study = MegaStudy(variants=tuple(
            MegaVariant(name=f"k{depth}",
                        world=MegaWorldConfig(size=4_000, seed=0),
                        max_ixps=depth)
            for depth in (4, 8)
        ))
        runs = {
            (transport, k): run_study(study, StudyConfig(
                seeds=(0, 1), workers=2, transport=transport, trial_batch=k,
            ))
            for transport, k in (("shm", 4), ("pickle", 1))
        }
        shm = runs["shm", 4]
        assert shm.transport_fallbacks == 0 and not shm.failures
        assert shm.world_builds == 2
        assert [study.encode(t) for t in shm.trials] == [
            study.encode(t) for t in runs["pickle", 1].trials
        ]


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

