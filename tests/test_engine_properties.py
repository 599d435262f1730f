"""Property-based tests of the study engine's core invariants.

Two laws the engine's correctness rests on, checked over generated
inputs instead of hand-picked cases:

* ``run_study`` resume idempotence — killing a run at *any* artifact
  point (including mid-line) and rerunning must reproduce the uncut
  run's trials and per-variant aggregates exactly;
* world-cache group accounting — for any variant grid over any world-key
  assignment, ``world_builds`` equals the number of distinct
  (seed, world-key) groups and every trial of a group sees the same
  world object.

Uses ``hypothesis`` when importable; otherwise each property runs as a
seeded fuzz loop over the same generator space, so the suite degrades
rather than disappears on a minimal environment.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass

import pytest

from repro.experiments import StudyConfig, Trial, aggregate, run_study
from repro.experiments.engine import _artifact_path

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal images
    HAVE_HYPOTHESIS = False

#: Fuzz-loop iterations when hypothesis is unavailable.
FUZZ_CASES = 25


def fuzz_rng(case: int):
    import numpy as np

    return np.random.default_rng(20_260_730 + case)


# -- a cheap study with a configurable world-key assignment --------------------


@dataclass(frozen=True, slots=True)
class _Spec:
    trial_id: int
    variant: str
    seed: int
    scale: float
    key_id: int


@dataclass(frozen=True, slots=True)
class KeyedStudy:
    """value = scale·seed; the world key is (seed, configured key id)."""

    cells: tuple[tuple[str, float, int], ...]  # (variant, scale, key_id)

    name = "keyed"
    #: ``world_id`` is the id() of the built world: it exposes sharing.
    trial_fields = ("value", "world_id")

    def variant_names(self):
        return tuple(name for name, _, _ in self.cells)

    def resolve(self, variant, seed, trial_id):
        scale, key_id = next(
            (scale, key_id)
            for name, scale, key_id in self.cells
            if name == variant
        )
        return _Spec(trial_id=trial_id, variant=variant, seed=seed,
                     scale=scale, key_id=key_id)

    def world_key(self, spec):
        return (spec.seed, spec.key_id)

    def build(self, spec):
        return {"seed": spec.seed, "key_id": spec.key_id}

    def measure(self, spec, world):
        assert world["seed"] == spec.seed and world["key_id"] == spec.key_id
        return Trial(spec.trial_id, spec.variant, spec.seed, {
            "value": spec.scale * spec.seed, "world_id": id(world),
        })

    def metrics(self, result):
        return {"value": result.values["value"]}


# -- the properties, phrased independently of the driver -----------------------


def check_resume_idempotent(
    n_seeds: int, n_variants: int, kill_line: int, garbage_tail: bool
) -> None:
    study = KeyedStudy(
        cells=tuple(
            (f"v{i}", float(i + 1), i % 2) for i in range(n_variants)
        )
    )
    seeds = tuple(range(1, n_seeds + 1))
    with tempfile.TemporaryDirectory() as out_dir:
        config = StudyConfig(seeds=seeds, workers=1, out_dir=out_dir)
        full = run_study(study, config)
        path = _artifact_path(study, out_dir)
        lines = path.read_text().splitlines(keepends=True)
        # Keep the header plus the first `kill_line` trial records —
        # any prefix is a state a kill could leave behind.
        keep = min(1 + kill_line, len(lines))
        tail = '{"trial_id": 1, "vari' if garbage_tail else ""
        path.write_text("".join(lines[:keep]) + tail)

        resumed = run_study(study, config)
        assert resumed.resumed == keep - 1
        assert [t.values["value"] for t in resumed.trials] == [
            t.values["value"] for t in full.trials
        ]
        assert [t.trial_id for t in resumed.trials] == [
            t.trial_id for t in full.trials
        ]
        assert aggregate(study, resumed) == aggregate(study, full)
        # The healed artifact carries every trial exactly once.  The
        # writer newline-terminates a truncated tail rather than erasing
        # it, so at most that one fragment line may fail to parse.
        parsed = []
        unparseable = 0
        for line in path.read_text().splitlines():
            if not line:
                continue
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                unparseable += 1
        assert unparseable <= 1
        trial_ids = [r["trial_id"] for r in parsed if "trial_id" in r]
        assert sorted(trial_ids) == [t.trial_id for t in full.trials]


def check_world_cache_accounting(cells: list[tuple[float, int]],
                                 n_seeds: int) -> None:
    study = KeyedStudy(
        cells=tuple(
            (f"v{i}", scale, key_id)
            for i, (scale, key_id) in enumerate(cells)
        )
    )
    seeds = tuple(range(n_seeds))
    result = run_study(study, StudyConfig(seeds=seeds, workers=1))
    distinct_keys = {key_id for _, key_id in cells}
    expected_builds = len(seeds) * len(distinct_keys)
    assert result.world_builds == expected_builds
    assert result.world_reuses == len(result.trials) - expected_builds
    # Every trial of one (seed, key) group saw the same world object.
    # (Across groups the ids are not comparable — a freed group's world
    # can be reallocated at the same address.)
    key_of = {name: key_id for name, _, key_id in study.cells}
    by_group: dict[tuple[int, int], set[int]] = {}
    for trial in result.trials:
        group = (trial.seed, key_of[trial.variant])
        by_group.setdefault(group, set()).add(trial.values["world_id"])
    assert len(by_group) == expected_builds
    assert all(len(ids) == 1 for ids in by_group.values())


# -- drivers: hypothesis when available, seeded fuzz loops otherwise -----------


if HAVE_HYPOTHESIS:

    class TestResumeIdempotence:
        @given(
            n_seeds=st.integers(min_value=1, max_value=4),
            n_variants=st.integers(min_value=1, max_value=3),
            kill_fraction=st.floats(min_value=0.0, max_value=1.0),
            garbage_tail=st.booleans(),
        )
        @settings(
            max_examples=25, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def test_any_kill_point_resumes_identically(
            self, n_seeds, n_variants, kill_fraction, garbage_tail
        ):
            trials = n_seeds * n_variants
            check_resume_idempotent(
                n_seeds, n_variants,
                kill_line=int(round(kill_fraction * trials)),
                garbage_tail=garbage_tail,
            )

    class TestWorldCacheAccounting:
        @given(
            cells=st.lists(
                st.tuples(
                    st.floats(min_value=0.5, max_value=4.0),
                    st.integers(min_value=0, max_value=3),
                ),
                min_size=1, max_size=6,
            ),
            n_seeds=st.integers(min_value=1, max_value=4),
        )
        @settings(max_examples=40, deadline=None)
        def test_builds_match_distinct_groups(self, cells, n_seeds):
            check_world_cache_accounting(cells, n_seeds)

else:  # pragma: no cover - exercised on minimal images

    class TestResumeIdempotence:
        @pytest.mark.parametrize("case", range(FUZZ_CASES))
        def test_any_kill_point_resumes_identically(self, case):
            rng = fuzz_rng(case)
            n_seeds = int(rng.integers(1, 5))
            n_variants = int(rng.integers(1, 4))
            trials = n_seeds * n_variants
            check_resume_idempotent(
                n_seeds, n_variants,
                kill_line=int(rng.integers(0, trials + 1)),
                garbage_tail=bool(rng.integers(0, 2)),
            )

    class TestWorldCacheAccounting:
        @pytest.mark.parametrize("case", range(FUZZ_CASES))
        def test_builds_match_distinct_groups(self, case):
            rng = fuzz_rng(case)
            cells = [
                (float(rng.uniform(0.5, 4.0)), int(rng.integers(0, 4)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            check_world_cache_accounting(cells, int(rng.integers(1, 5)))
