"""The study scheduler: thread-safe deadlines, priorities, cancellation,
duplicate-submission store hits and journaled crash recovery.

The execution core (``execute_study``) is covered by the engine suites;
these tests pin the properties the ``repro serve`` job queue adds on
top: the progress and cancel hooks (cancel on the inline, batch and
pool drivers), and the deadline that only shows off the main thread —
``trial_timeout_s`` must quarantine a hung trial from a scheduler
thread, where the historical SIGALRM deadline silently disabled itself,
and must stop it rather than leave it running.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.aggregate import aggregate
from repro.experiments.engine import (
    StudyConfig,
    _artifact_path,
    expand_trials,
    run_study,
    study_fingerprint,
)
from repro.experiments.scheduler import (
    JobState,
    StudyCancelled,
    StudyScheduler,
    _call_with_deadline,
    _TrialTimeout,
    execute_study,
)
from tests.test_engine_quarantine import CrashStudy
from tests.test_trial_batch import ToyStudy


def shm_snapshot() -> set[str]:
    return set(os.listdir("/dev/shm"))


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
class SleepyStudy:
    """Every trial sleeps ``sleep_s`` then returns its seed (picklable)."""

    sleep_s: float = 0.0

    name = "sleepy"

    def variant_names(self):
        return ("base",)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed}

    def measure(self, spec, world):
        if self.sleep_s:
            time.sleep(self.sleep_s)
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
class SlowShmStudy:
    """A shared-memory study whose trials sleep — cancellation bait."""

    sleep_s: float = 0.5

    name = "slowshm"

    def variant_names(self):
        return ("base",)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed, "values": np.full(64, float(spec.seed))}

    def export_world(self, world):
        return world["seed"], {"values": world["values"]}

    def attach_world(self, meta, columns):
        return {"seed": meta, "values": columns["values"]}

    def measure(self, spec, world):
        time.sleep(self.sleep_s)
        return _Result(
            trial_id=spec.trial_id, variant=spec.variant, seed=spec.seed,
            value=float(world["values"].sum()),
        )

    def metrics(self, result):
        return {"value": result.value}

    def encode(self, result):
        return asdict(result)

    def decode(self, payload):
        return _Result(**payload)


def _await(job, timeout_s: float = 60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if job.state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job.job_id} stuck in {job.state}")


class TestThreadSafeDeadline:
    def test_timeout_quarantines_off_main_thread(self):
        """The ISSUE regression: a timing-out study run from a non-main
        thread (exactly where ``repro serve`` runs studies) must still
        quarantine the hung trial — the old SIGALRM-only deadline was a
        silent no-op there and the study hung for the full sleep."""
        box: dict[str, object] = {}

        def runner():
            box["result"] = run_study(
                CrashStudy(sleep_s=5.0),
                StudyConfig(seeds=(1, 2), workers=1, trial_timeout_s=0.2),
            )

        thread = threading.Thread(target=runner)
        start = time.monotonic()
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert time.monotonic() - start < 5.0  # never slept the full 5 s
        result = box["result"]
        (failure,) = result.failures
        assert (failure.variant, failure.seed) == ("boom", 2)
        assert "deadline" in failure.error
        assert len(result.trials) == 3

    def test_main_thread_keeps_the_sigalrm_fast_path(self):
        # On a main thread the itimer fires — the message carries no
        # "reaped" marker, proving the signal path was taken.
        with pytest.raises(_TrialTimeout) as excinfo:
            _call_with_deadline(0.1, lambda: time.sleep(5))
        assert "reaped" not in str(excinfo.value)

    def test_no_trial_body_outlives_its_deadline(self):
        """Off the main thread a deadline must stop the trial, not just
        stop waiting for it: the study returns early with every trial
        quarantined, and neither a helper thread nor a worker process
        is still running the 2 s bodies."""
        box: dict[str, object] = {}

        def runner():
            box["result"] = run_study(
                SleepyStudy(sleep_s=2.0),
                StudyConfig(seeds=(1, 2, 3), workers=1, trial_timeout_s=0.1),
            )

        thread = threading.Thread(target=runner)
        start = time.monotonic()
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert time.monotonic() - start < 1.5
        result = box["result"]
        assert len(result.failures) == 3
        assert all("deadline" in f.error for f in result.failures)
        assert not [t for t in threading.enumerate()
                    if t.name == "repro-trial-body"]
        assert multiprocessing.active_children() == []

    def test_reaped_path_reraises_body_errors(self):
        # A body error under an off-main-thread deadline surfaces as that
        # error, not as a timeout.
        box: dict[str, object] = {}

        def runner():
            box["result"] = run_study(
                CrashStudy(),
                StudyConfig(seeds=(1, 2), workers=1, trial_timeout_s=5.0),
            )

        thread = threading.Thread(target=runner)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        (failure,) = box["result"].failures
        assert failure.error == "RuntimeError: poison trial"

    def test_no_budget_runs_inline(self):
        assert _call_with_deadline(None, lambda: 41 + 1) == 42
        assert _call_with_deadline(0, lambda: "ran") == "ran"


class TestExecuteStudyHooks:
    def test_on_trial_reports_monotone_progress(self, tmp_path):
        seen: list[tuple[int, int]] = []
        execute_study(
            SleepyStudy(), StudyConfig(seeds=(1, 2, 3), workers=1,
                                       out_dir=str(tmp_path)),
            on_trial=lambda result, done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]
        # Resumed trials fire the hook too (the service's progress bar
        # must move on store hits exactly like on executions).
        seen.clear()
        execute_study(
            SleepyStudy(), StudyConfig(seeds=(1, 2, 3), workers=1,
                                       out_dir=str(tmp_path)),
            on_trial=lambda result, done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_pre_set_cancel_raises_before_dispatch(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(StudyCancelled):
            execute_study(
                SleepyStudy(), StudyConfig(seeds=(1,), workers=1),
                cancel=cancel,
            )

    @pytest.mark.parametrize("study,knobs", [
        (SleepyStudy(), {"workers": 1}),
        (ToyStudy(), {"workers": 1, "trial_batch": 2}),
        (SleepyStudy(sleep_s=0.05), {"workers": 2}),
    ], ids=["inline-group", "inline-batch", "pickle-pool"])
    def test_mid_run_cancel_resumes_what_it_recorded(
        self, tmp_path, study, knobs
    ):
        config = StudyConfig(seeds=tuple(range(8)), out_dir=str(tmp_path),
                             **knobs)
        cancel = threading.Event()
        recorded: list[int] = []

        def on_trial(result, done, total):
            recorded.append(result.trial_id)
            cancel.set()  # at the first executed trial

        with pytest.raises(StudyCancelled):
            execute_study(study, config, on_trial=on_trial, cancel=cancel)
        assert 0 < len(recorded) < len(expand_trials(study, config.seeds))
        rows = _artifact_path(study, str(tmp_path)).read_text().splitlines()
        assert sorted(json.loads(row)["trial_id"] for row in rows[1:]) == \
            sorted(recorded)

        rerun = run_study(study, config)
        clean = run_study(study, StudyConfig(seeds=config.seeds, **knobs))
        assert rerun.resumed == len(recorded)
        assert [asdict(t) for t in rerun.trials] == \
            [asdict(t) for t in clean.trials]


class TestPriorityOrdering:
    def test_higher_priority_runs_first_ties_fifo(self, tmp_path):
        # Submit against a *stopped* scheduler so the queue orders fully
        # before the single worker thread starts draining it.
        scheduler = StudyScheduler(str(tmp_path), threads=1)
        jobs = [
            scheduler.submit(study=SleepyStudy(sleep_s=0.05),
                             config=StudyConfig(seeds=(seed,), workers=1),
                             name=name, priority=priority)
            for name, priority, seed in (
                ("low", 0, 1), ("high", 5, 2), ("mid", 1, 3),
                ("high-2", 5, 4),
            )
        ]
        scheduler.start()
        try:
            for job in jobs:
                assert _await(job).state is JobState.DONE
        finally:
            scheduler.shutdown()
        started = {job.name: job.started_s for job in jobs}
        assert started["high"] < started["high-2"]  # FIFO within a tie
        assert started["high-2"] < started["mid"] < started["low"]


@dataclass(frozen=True, slots=True)
class NoMetricsStudy(SleepyStudy):
    """Its trials run, but the study cannot aggregate them."""

    def metrics(self, result):
        raise RuntimeError("no metrics for this study")


class TestJobMetrics:
    def test_metrics_are_the_aggregate_and_a_bad_study_fails_alone(
        self, tmp_path
    ):
        study = SleepyStudy()
        config = StudyConfig(seeds=(1, 2, 3), workers=1)
        scheduler = StudyScheduler(str(tmp_path), threads=1)
        scheduler.start()
        try:
            job = _await(scheduler.submit(study=study, config=config))
            bad = _await(scheduler.submit(
                study=NoMetricsStudy(), config=replace(config, seeds=(4,)),
            ))
            after = _await(scheduler.submit(
                study=study, config=replace(config, seeds=(5,)),
            ))
        finally:
            scheduler.shutdown()
        assert job.state is JobState.DONE
        ci = aggregate(study, job.result)["base"]["value"]
        assert job.metrics == {"base": {"value": {
            "mean": ci.mean, "half_width": ci.half_width, "n": ci.n,
        }}}
        # A study whose metrics raise fails its own job; the scheduler
        # thread lives on and runs the next one.
        assert bad.state is JobState.FAILED
        assert "no metrics for this study" in bad.error
        assert after.state is JobState.DONE


class TestDuplicateSubmissions:
    def test_identical_submissions_hit_the_store_exactly_once(self, tmp_path):
        study = SleepyStudy(sleep_s=0.1)
        config = StudyConfig(seeds=(1, 2), workers=1)
        scheduler = StudyScheduler(str(tmp_path), threads=2)
        scheduler.start()
        try:
            first = scheduler.submit(study=study, config=config)
            second = scheduler.submit(study=study, config=config)
            _await(first), _await(second)
        finally:
            scheduler.shutdown()
        assert first.state is JobState.DONE
        assert second.state is JobState.DONE
        assert first.fingerprint == second.fingerprint
        # Exactly one of the two executed; the other resumed everything
        # from the artifact the first one wrote (the per-fingerprint lock
        # serializes them even on concurrent scheduler threads).
        hits = sorted((job.cache_hit, job.trials_resumed)
                      for job in (first, second))
        assert hits == [(False, 0), (True, 2)]
        metrics = scheduler.metrics_snapshot()
        assert metrics["store"] == {
            "trial_hits": 2, "trial_misses": 2, "full_hits": 1,
        }
        # The artifact holds each trial exactly once.
        path = _artifact_path(study, str(scheduler.store_dir),
                              first.fingerprint)
        assert len(path.read_text().splitlines()) == 1 + 2


class TestCancellation:
    def test_queued_job_cancels_immediately(self, tmp_path):
        scheduler = StudyScheduler(str(tmp_path), threads=1)
        job = scheduler.submit(study=SleepyStudy(),
                               config=StudyConfig(seeds=(1,), workers=1))
        cancelled = scheduler.cancel(job.job_id)
        assert cancelled.state is JobState.CANCELLED
        # Cancelling a terminal job is idempotent.
        assert scheduler.cancel(job.job_id).state is JobState.CANCELLED

    def test_unknown_job_raises(self, tmp_path):
        scheduler = StudyScheduler(str(tmp_path), threads=1)
        with pytest.raises(ConfigurationError, match="unknown job"):
            scheduler.cancel("job-missing")

    @pytest.mark.slow
    def test_mid_group_shm_cancel_leaves_no_segments(self, tmp_path):
        """Cancel a pooled shm study mid-flight: the run must stop early
        AND sweep every shared-memory segment (``close_all`` on the
        cancellation path), leaving ``/dev/shm`` exactly as it was."""
        before = shm_snapshot()
        scheduler = StudyScheduler(str(tmp_path), threads=1)
        scheduler.start()
        try:
            job = scheduler.submit(
                study=SlowShmStudy(sleep_s=0.4),
                config=StudyConfig(
                    seeds=tuple(range(8)), workers=2, transport="shm",
                ),
            )
            # Let the parent build worlds and the pool start measuring...
            deadline = time.monotonic() + 30.0
            while job.state is JobState.QUEUED and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.5)
            scheduler.cancel(job.job_id)
            _await(job)
        finally:
            scheduler.shutdown()
        assert job.state is JobState.CANCELLED
        assert "cancelled" in (job.error or "")
        assert job.trials_done < 8  # it genuinely stopped early
        assert shm_snapshot() == before  # no orphaned segments
        # Completed trials stayed on disk: a resubmission resumes them
        # (the fingerprint covers the trial grid, not sleep_s, so the
        # fast variant reuses the cancelled run's artifact).
        partial = run_study(
            SlowShmStudy(sleep_s=0.0),
            StudyConfig(seeds=tuple(range(8)), workers=1,
                        out_dir=str(scheduler.store_dir)),
        )
        assert partial.resumed == job.trials_done
        assert len(partial.trials) == 8


class TestRecovery:
    REQUEST = {
        "study": "detection",
        "config": {"ixps": ["TorIX"], "seeds": [0, 1], "workers": 1},
    }

    def test_killed_service_resumes_queued_jobs_from_artifacts(self, tmp_path):
        from repro.serve.jobs import resolve_request

        # Service A journals a submission and dies before running it.
        first = StudyScheduler(str(tmp_path), threads=1,
                               resolver=resolve_request)
        queued = first.submit(request=self.REQUEST)
        assert queued.state is JobState.QUEUED  # never started

        # The study's trials were (partially) computed by an earlier run
        # whose artifacts live in the store.
        name, study, config = resolve_request(self.REQUEST)
        from dataclasses import replace

        run_study(study, replace(config, out_dir=str(tmp_path)))

        # Service B on the same store re-enqueues the journaled job and
        # answers it entirely from the artifacts.
        second = StudyScheduler(str(tmp_path), threads=1,
                                resolver=resolve_request)
        assert second.recover() == 1
        job = second.get(queued.job_id)
        second.start()
        try:
            _await(job, timeout_s=120.0)
        finally:
            second.shutdown()
        assert job.state is JobState.DONE
        assert job.cache_hit
        assert job.trials_resumed == job.trials_total == 2

        # A third restart finds the terminal journal line: nothing to do.
        third = StudyScheduler(str(tmp_path), threads=1,
                               resolver=resolve_request)
        assert third.recover() == 0

    def test_recover_skips_live_object_submissions(self, tmp_path):
        first = StudyScheduler(str(tmp_path), threads=1)
        first.submit(study=SleepyStudy(),
                     config=StudyConfig(seeds=(1,), workers=1))
        second = StudyScheduler(str(tmp_path), threads=1)
        assert second.recover() == 0  # no request payload, not rebuildable

    def test_fingerprint_matches_public_helper(self, tmp_path):
        scheduler = StudyScheduler(str(tmp_path), threads=1)
        study = SleepyStudy()
        config = StudyConfig(seeds=(1, 2), workers=1)
        job = scheduler.submit(study=study, config=config)
        assert job.fingerprint == study_fingerprint(study, config.seeds)
