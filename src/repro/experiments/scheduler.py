"""The study scheduler: execution machinery + a resumable job queue.

This module holds everything that used to live inside the single
blocking ``run_study`` call, split into two layers:

:func:`execute_study`
    The trial execution core.  Seed × grid expansion yields the pending
    trials, grouped by world key, which are lowered to work items, and
    every item runs through :func:`_run_item`, inline or on a
    ``ProcessPoolExecutor``, with per-trial deadlines, bounded retry and
    quarantine.  The items:

    * up to ``trial_batch`` consecutive world-key groups, run in turn
      under one GC pause: each builds its world, measures every trial
      against it and drops it before the next build;
    * on the shared-memory transport, a world-key group's *publish*
      item: build the world under the trial deadline and pack its
      columns into a segment whose name the parent reserved; only the
      descriptor comes back;
    * one *attach* item per trial of a published world, submitted the
      moment the parent adopts the segment, so worlds build side by
      side and a landed world's trials can overlap the next build.

    The inline and pool drivers drain the same items.  Two optional
    hooks: ``on_trial`` (a progress callback fired for every recorded
    trial, resumed or executed) and ``cancel`` (a
    :class:`threading.Event` checked between items; a set event abandons
    the remaining work, raises :class:`StudyCancelled`, and still sweeps
    every shared-memory segment and closes the artifact on the way
    out).  :func:`repro.experiments.engine.run_study` is a thin
    front end over this function with no hooks attached.

:class:`StudyScheduler`
    A long-running priority job queue over ``execute_study`` — the
    engine room of ``repro serve``.  Jobs are submitted as (study,
    config) pairs or as JSON request payloads resolved through an
    injected resolver, run on a small pool of scheduler threads,
    journaled to ``<store>/jobs.jsonl`` so a killed service re-enqueues
    its unfinished jobs on restart, and answered from the
    content-addressed artifact store whenever a submission's
    fingerprint already has every trial on disk — a repeated
    ``(study, variant, seed)`` submission never recomputes, and cache
    hit/miss counts are first-class metrics.

A per-trial deadline is a ``SIGALRM`` itimer: it interrupts even C-level
sleeps, but only a main thread can take it.  A study with
``trial_timeout_s`` that runs on any other thread — exactly where
scheduler jobs run — therefore always takes the pool driver, even at
``workers=1``, and each item runs on a worker process's main thread
under the itimer.  A trial that blows its budget stops there; it does
not keep running unseen, and ``trial_timeout_s`` is never a silent
no-op.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import threading
import time
import uuid
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, Future, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from repro.errors import ConfigurationError, ReproError
from repro.experiments import transport
from repro.experiments.aggregate import aggregate
from repro.experiments.engine import (
    Study,
    StudyConfig,
    StudyResult,
    TrialFailure,
    _ArtifactWriter,
    _fingerprint,
    _load_artifacts,
    _resolve_artifact_path,
    expand_trials,
)
from repro.gcpause import paused_gc


class StudyCancelled(ReproError):
    """A study run was cancelled before every trial completed."""


class _TrialTimeout(Exception):
    """A trial blew its wall-clock budget (internal control flow)."""

    def __init__(
        self, message: str = "trial exceeded its wall-clock deadline"
    ) -> None:
        super().__init__(message)


def _call_with_deadline(timeout_s: float | None, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` under a ``SIGALRM`` itimer of ``timeout_s`` seconds.

    ``None``/non-positive budgets run the body directly.  The itimer
    interrupts even C-level blocking (``time.sleep``, a hung syscall),
    but only a main thread can install it: :func:`execute_study` sends a
    budgeted study that runs on any other thread to a worker process,
    whose items run on that process's main thread.
    """
    if timeout_s is None or timeout_s <= 0:
        return fn()

    def _on_alarm(signum: int, frame: Any) -> None:
        raise _TrialTimeout(f"trial exceeded its {timeout_s:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _guarded(
    timeout_s: float | None, fn: Callable[[], Any]
) -> tuple[Any, Exception | None]:
    """``(fn(), None)`` under the deadline, or ``(None, error)`` when
    quarantine absorbs the failure.

    :class:`ConfigurationError` always propagates — a misconfigured study
    is a programmer error, not chaos to absorb.
    """
    try:
        return _call_with_deadline(timeout_s, fn), None
    except ConfigurationError:
        raise
    except Exception as error:
        return None, error


def _failure(spec: Any, error: BaseException, attempts: int) -> TrialFailure:
    return TrialFailure(
        trial_id=spec.trial_id,
        variant=spec.variant,
        seed=spec.seed,
        error=f"{type(error).__name__}: {error}",
        attempts=attempts,
    )


#: ``(descriptor, meta, build_s)`` of a world a publish item packed.
_Attach = tuple[transport.SegmentDescriptor, Any, float]


@dataclass(frozen=True, slots=True)
class _WorkItem:
    """One dispatch unit of :func:`execute_study`.

    The world-key groups of one item run in one call, one after another:
    up to ``trial_batch`` groups (one build each, every trial of the
    group measured against it), one group with ``publish`` set (one
    build, packed into that reserved shared-memory segment), or a single
    trial whose ``attach`` names a published world.
    """

    groups: list[list[Any]]
    publish: str | None = None
    attach: _Attach | None = None


#: Phase seconds of one trial, as recorded next to its result.
_Timings = dict[str, float]


class _Outcome(NamedTuple):
    """What one work item hands back to the parent."""

    results: list[Any]
    #: Phase seconds of each trial that succeeded, by trial id.
    timings: dict[int, _Timings] = {}
    transport_fallbacks: int = 0
    #: A publish item's world, for the parent to adopt and fan out.
    published: _Attach | None = None
    #: Worlds this item built (a failed build counts none), and the
    #: trials of their groups beyond the first.
    world_builds: int = 0
    world_reuses: int = 0


def _run_group(
    study: Study,
    specs: list[Any],
    timeout_s: float | None,
    retries: int,
    attach: _Attach | None = None,
    publish: str | None = None,
) -> _Outcome:
    """Get the group's world once, then measure every trial against it.

    The world is built here or, given ``attach``, rebuilt around
    zero-copy views of the published columns (``study.attach_world``);
    the mapping is closed on the way out, while the segment itself stays
    owned by the parent.  Given ``publish``, the built world's columns
    are packed into that reserved segment instead and only the
    descriptor goes back: the parent adopts the segment and fans the
    group out, one attach item per trial.  A world that cannot cross the
    transport (its export or packing raises) is measured right here and
    counted as a transport fallback.

    A failed world fails every trial of the group (there is nothing to
    measure against).  One poison trial must not lose the group: each
    trial is retried up to ``retries`` times under the per-trial
    deadline and then quarantined, recorded as a :class:`TrialFailure`
    while the rest of the group keeps running.

    Each measured trial's timings are the world's build seconds (for an
    attached world, its build in the publish item) and the seconds of
    its successful ``study.measure`` call.  A world counts as built
    only when its build returned, and then serves its group's trials:
    every trial past the first is a reuse, whether the group is measured
    here or fanned out from a published segment (an attach item counts
    nothing).
    """
    box: dict[str, Any] = {}

    def _world() -> Any:
        if attach is None:
            return study.build(specs[0])
        box["attached"] = attached = transport.attach_columns(attach[0])
        return study.attach_world(attach[1], attached.arrays)  # type: ignore[attr-defined]

    start = time.perf_counter()
    try:
        world, error = _guarded(timeout_s, _world)
        if error is not None:
            return _Outcome([_failure(spec, error, attempts=1)
                             for spec in specs])
        build_s = (time.perf_counter() - start if attach is None
                   else attach[2])
        builds = int(attach is None)
        reuses = builds * (len(specs) - 1)
        fallbacks = 0
        if publish is not None:
            try:
                meta, columns = study.export_world(world)  # type: ignore[attr-defined]
                descriptor = transport.SegmentManager().create(
                    columns, name=publish)
                return _Outcome([], published=(descriptor, meta, build_s),
                                world_builds=builds, world_reuses=reuses)
            except ConfigurationError:
                raise
            except Exception:
                fallbacks = len(specs)
        results: list[Any] = []
        timings: dict[int, _Timings] = {}
        for spec in specs:
            for _ in range(1 + retries):
                began = time.perf_counter()
                result, error = _guarded(
                    timeout_s, lambda: study.measure(spec, world),
                )
                if error is None:
                    timings[spec.trial_id] = {
                        "build_s": build_s,
                        "measure_s": time.perf_counter() - began,
                    }
                    break
            results.append(result if error is None
                           else _failure(spec, error, attempts=1 + retries))
        return _Outcome(results, timings, transport_fallbacks=fallbacks,
                        world_builds=builds, world_reuses=reuses)
    finally:
        world = None  # drop the world's views before unmapping them
        if "attached" in box:
            box["attached"].close()


def _run_item(
    study: Study,
    item: _WorkItem,
    timeout_s: float | None,
    retries: int,
) -> _Outcome:
    """Run one work item: its groups in turn, under one GC pause.

    The one worker the process pool runs, and what the inline driver
    calls.  Each group goes through :func:`_run_group`, so the groups of
    a batch keep exactly the deadline, retry and quarantine semantics of
    one group per item, and each group's world is dropped before the
    next one is built.  Builds and trials allocate bursts of GC-tracked
    objects that refcounting frees; collections fired mid-item rescan
    them for nothing (~5% of a cold mini3 detection trial).  Only a
    single-group item publishes or attaches a world.
    """
    with paused_gc():
        outcomes = [
            _run_group(study, group, timeout_s, retries, item.attach,
                       item.publish)
            for group in item.groups
        ]
    if len(outcomes) == 1:
        return outcomes[0]
    return _Outcome(
        [result for outcome in outcomes for result in outcome.results],
        {trial_id: timing for outcome in outcomes
         for trial_id, timing in outcome.timings.items()},
        world_builds=sum(outcome.world_builds for outcome in outcomes),
        world_reuses=sum(outcome.world_reuses for outcome in outcomes),
    )


def execute_study(
    study: Study,
    config: StudyConfig,
    *,
    on_trial: Callable[[Any, int, int], None] | None = None,
    cancel: threading.Event | None = None,
) -> StudyResult:
    """Run every not-yet-completed trial of ``study`` under ``config``.

    Results come back in trial order regardless of completion order, so
    studies are reproducible artifacts: same configuration, same report.
    This is the one place a study run reads the clock: each executed
    trial's phase seconds are recorded beside its result, in the
    artifact row's ``timings`` and in ``StudyResult.timings``, and never
    inside it.  The run is not aggregated here: ``Study.metrics`` is
    never called, and readers apply
    :func:`repro.experiments.aggregate.aggregate` to the result.
    ``world_builds`` counts the worlds whose build returned and
    ``world_reuses`` the trials of their groups beyond the first.

    ``on_trial(result, done, total)`` fires once per recorded trial —
    resumed trials first (in trial order), then executed ones as they
    complete.  ``cancel`` is polled between work items: once set, no
    further item is started, still-queued pool futures are cancelled,
    and :class:`StudyCancelled` is raised *after* the artifact writer is
    closed and every shared-memory segment is swept — completed trials
    stay on disk, so a cancelled study resumes where it stopped.
    """
    t0 = time.perf_counter()
    specs = expand_trials(study, config.seeds)
    total = len(specs)
    fingerprint = _fingerprint(study, specs)

    completed: dict[int, Any] = {}
    timings: dict[int, _Timings] = {}
    if config.out_dir is not None:
        completed, timings = _load_artifacts(
            study,
            _resolve_artifact_path(study, config.out_dir, fingerprint),
            fingerprint,
            trial_count=total,
        )
    resumed = len(completed)

    # Group the remaining trials by world key, preserving trial order
    # within and across groups, so every trial in a group reuses one
    # build.
    groups: dict[Hashable, list[Any]] = {}
    for spec in specs:
        if spec.trial_id not in completed:
            groups.setdefault(study.world_key(spec), []).append(spec)
    group_list = list(groups.values())
    # Shared-memory transport: each world-key group's world is built once,
    # by a publish item, and fans out one attach item per trial; studies
    # without the export/attach hooks keep the pickle path.
    use_shm = (
        config.transport == "shm"
        and getattr(study, "export_world", None) is not None
        and getattr(study, "attach_world", None) is not None
    )
    # SIGALRM fires only on a main thread, so a budgeted study running on
    # any other thread runs its items in worker processes.
    needs_workers = (
        config.trial_timeout_s is not None
        and threading.current_thread() is not threading.main_thread()
    )

    def record(result: Any, timing: _Timings | None) -> None:
        completed[result.trial_id] = result
        if timing is not None:
            timings[result.trial_id] = timing
        writer.append(result, timing)
        if on_trial is not None:
            on_trial(result, len(completed), total)

    if on_trial is not None:
        done_so_far = 0
        for trial_id in sorted(completed):
            done_so_far += 1
            on_trial(completed[trial_id], done_so_far, total)

    item_args = (config.trial_timeout_s, config.trial_retries)
    pool_restarts = 0
    transport_fallbacks = 0
    world_builds = 0
    world_reuses = 0
    #: Every item not yet finished, by id: what a broken pool re-runs.
    unfinished: dict[int, _WorkItem] = {}

    def check_cancel(futures: Iterable[Future[Any]] = ()) -> None:
        if cancel is not None and cancel.is_set():
            for future in futures:
                future.cancel()
            raise StudyCancelled(
                f"study {study.name!r} cancelled with "
                f"{len(completed)}/{total} trials recorded"
            )

    def finish(item: _WorkItem, outcome: _Outcome) -> list[_WorkItem]:
        """Record a finished item; returns the items it spawns."""
        nonlocal transport_fallbacks, world_builds, world_reuses
        del unfinished[id(item)]
        transport_fallbacks += outcome.transport_fallbacks
        world_builds += outcome.world_builds
        world_reuses += outcome.world_reuses
        for result in outcome.results:
            record(result, outcome.timings.get(result.trial_id))
        if item.attach is not None:
            manager.release(item.attach[0].segment)
        if outcome.published is None:
            return []
        (group,) = item.groups
        manager.adopt(outcome.published[0], refs=len(group))
        spawned = [_WorkItem([[spec]], attach=outcome.published)
                   for spec in group]
        unfinished.update((id(new), new) for new in spawned)
        return spawned

    def drain(items: list[_WorkItem],
              pool: ProcessPoolExecutor | None) -> None:
        # Run ``items`` and every item they spawn, inline or on ``pool``.
        # A landed world's attach items jump the queue, so its segment is
        # released before more worlds are built.  The pool holds at most
        # one item beyond its workers, and finished items are drained in
        # completion order so their trials land in the resume artifact
        # immediately — a slow head-of-line item must not hold every
        # other item's trials hostage to a mid-run kill.  With a cancel
        # event the wait wakes every 0.2 s to poll it.  Trial order is
        # restored at the end.
        unfinished.clear()
        unfinished.update((id(item), item) for item in items)
        queue = deque(items)
        running: dict[Future[_Outcome], _WorkItem] = {}
        while queue or running:
            check_cancel(running)
            if pool is None:
                item = queue.popleft()
                queue.extendleft(reversed(
                    finish(item, _run_item(study, item, *item_args))))
                continue
            while queue and len(running) <= pool_size:
                item = queue.popleft()
                running[pool.submit(_run_item, study, item, *item_args)] = item
            done, _ = wait(
                running,
                timeout=0.2 if cancel is not None else None,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                queue.extendleft(reversed(
                    finish(running.pop(future), future.result())))

    writer = _ArtifactWriter(study, config.out_dir, fingerprint)
    manager = transport.SegmentManager() if use_shm and group_list else None
    try:
        check_cancel()
        if manager is not None:
            items = [_WorkItem([group], publish=manager.reserve())
                     for group in group_list]
        else:
            batch = config.trial_batch
            items = [_WorkItem(group_list[i:i + batch])
                     for i in range(0, len(group_list), batch)]
        # Items that can run side by side: a shm group's trials fan out.
        parallel = sum(map(len, group_list)) if use_shm else len(items)
        workers = config.workers or min(
            os.cpu_count() or 1, max(len(items), 1)
        )
        pool_size = min(workers, parallel)
        if items and (needs_workers or (workers > 1 and parallel > 1)):
            for attempt in (0, 1):
                try:
                    with ProcessPoolExecutor(max_workers=pool_size) as pool:
                        drain(items, pool)
                    break
                except BrokenProcessPool:
                    # A crashed worker (OOM kill, segfault, os._exit)
                    # breaks the whole pool; one restart re-runs every
                    # unfinished item.  A publish item gets a fresh name:
                    # the dead worker may have half-created the old one,
                    # which close_all sweeps.
                    items = [
                        replace(item, publish=manager.reserve())
                        if item.publish else item
                        for item in unfinished.values()
                    ]
                    if attempt == 1 or not items:
                        raise
                    pool_restarts += 1
        else:
            drain(items, None)
    finally:
        writer.close()
        if manager is not None:
            # Belt and braces: every exit path (success, quarantine,
            # cancellation, BrokenProcessPool, KeyboardInterrupt) unlinks
            # whatever segments the refcounts have not already released,
            # and every reserved name a worker may have half-created.
            manager.close_all()

    ordered = [completed[i] for i in range(total)]
    return StudyResult(
        study=study.name,
        config=config,
        trials=[r for r in ordered if not isinstance(r, TrialFailure)],
        wall_s=time.perf_counter() - t0,
        world_builds=world_builds,
        world_reuses=world_reuses,
        resumed=resumed,
        timings=dict(sorted(timings.items())),
        failures=[r for r in ordered if isinstance(r, TrialFailure)],
        pool_restarts=pool_restarts,
        transport_fallbacks=transport_fallbacks,
    )


# --------------------------------------------------------------------------
# The job queue: priorities, cancellation, journaled recovery, store hits.
# --------------------------------------------------------------------------


class JobState(str, Enum):
    """Lifecycle of one scheduled study job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass
class StudyJob:
    """One scheduled study: identity, request, live progress, outcome.

    Mutable fields are only written under the scheduler's lock;
    :meth:`snapshot` returns a plain-dict copy safe to serve from other
    threads (the HTTP handlers never touch the live object).
    """

    job_id: str
    name: str
    study: Study
    config: StudyConfig
    priority: int = 0
    request: dict[str, Any] | None = None
    state: JobState = JobState.QUEUED
    fingerprint: str = ""
    trials_total: int = 0
    trials_done: int = 0
    trials_resumed: int = 0
    trials_failed: int = 0
    cache_hit: bool = False
    error: str | None = None
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    wall_s: float = 0.0
    result: StudyResult | None = None
    failure_notes: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, dict[str, dict[str, float]]] = field(
        default_factory=dict
    )
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of the job's externally visible state.

        ``coverage`` is the finished run's
        :meth:`~repro.experiments.engine.StudyResult.coverage_note` (None
        while running and for clean runs), next to the fallback and
        restart counters it summarizes.
        """
        result = self.result
        return {
            "id": self.job_id,
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "trials": {
                "total": self.trials_total,
                "done": self.trials_done,
                "resumed": self.trials_resumed,
                "failed": self.trials_failed,
            },
            "cache_hit": self.cache_hit,
            "error": self.error,
            "failures": list(self.failure_notes),
            "coverage": result.coverage_note() if result else None,
            "batch_fallbacks": result.batch_fallbacks if result else 0,
            "transport_fallbacks": result.transport_fallbacks if result else 0,
            "pool_restarts": result.pool_restarts if result else 0,
            "metrics": self.metrics,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "wall_s": self.wall_s,
        }


#: A request resolver: JSON payload -> (display name, study, config).
RequestResolver = Callable[[dict[str, Any]], tuple[str, Study, StudyConfig]]


class StudyScheduler:
    """A resumable priority queue of study jobs over :func:`execute_study`.

    * **Priorities** — higher ``priority`` runs first; ties run in
      submission order.
    * **Concurrency** — ``threads`` scheduler threads run that many
      studies at once; each study may itself fan trials out over a
      process pool (its ``StudyConfig.workers``).
    * **Content addressing** — every job executes with ``out_dir``
      pointed at the scheduler's store directory, so artifacts are
      keyed by configuration fingerprint.  A submission whose
      fingerprint already has all its trials on disk completes without
      executing anything (``cache_hit``), identical in-flight
      submissions serialize on a per-fingerprint lock so duplicate
      work can never run twice, and per-trial hit/miss counters are
      exposed by :meth:`metrics_snapshot`.
    * **Recovery** — submissions and terminal states are journaled to
      ``<store>/jobs.jsonl``; :meth:`recover` re-enqueues every job the
      journal shows as submitted but not finished (their completed
      trials resume from the artifacts).  Only jobs submitted as JSON
      requests are recoverable — a live ``Study`` object cannot be
      rebuilt from a journal line.
    * **Cancellation** — queued jobs cancel immediately; running jobs
      get their event set and stop at the next dispatch step, sweeping
      shared-memory segments on the way out.
    """

    def __init__(
        self,
        store_dir: str,
        *,
        threads: int = 2,
        resolver: RequestResolver | None = None,
    ) -> None:
        if threads < 1:
            raise ConfigurationError("scheduler needs at least one thread")
        self._store_dir = Path(store_dir)
        self._store_dir.mkdir(parents=True, exist_ok=True)
        self._resolver = resolver
        self._journal_path = self._store_dir / "jobs.jsonl"
        self._threads_wanted = threads
        self._threads: list[threading.Thread] = []
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._queue: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = 0
        self._jobs: dict[str, StudyJob] = {}
        self._fingerprint_locks: dict[str, threading.Lock] = {}
        self._stopping = False
        self._trial_hits = 0    # trials answered from the store
        self._trial_misses = 0  # trials actually executed

    # -- lifecycle ---------------------------------------------------------

    @property
    def store_dir(self) -> Path:
        """The content-addressed artifact directory jobs write into."""
        return self._store_dir

    def start(self) -> None:
        """Spawn the scheduler threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            for index in range(self._threads_wanted):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-scheduler-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def shutdown(self, wait_s: float | None = None) -> None:
        """Stop pulling new jobs and join the scheduler threads.

        In-flight jobs finish (their artifacts make the work resumable);
        queued jobs stay queued — a later :meth:`recover` on the same
        store picks them back up.
        """
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=wait_s)
        with self._lock:
            self._threads = []

    # -- submission & control ---------------------------------------------

    def submit(
        self,
        *,
        request: dict[str, Any] | None = None,
        study: Study | None = None,
        config: StudyConfig | None = None,
        name: str | None = None,
        priority: int | None = None,
        job_id: str | None = None,
    ) -> StudyJob:
        """Queue one study; returns the live job record.

        Either a JSON ``request`` (resolved through the injected
        resolver; journaled, hence recoverable) or an explicit
        ``study`` + ``config`` pair.  ``config.out_dir`` is always
        redirected into the scheduler's store so results are content
        addressed.
        """
        if study is None:
            if request is None:
                raise ConfigurationError(
                    "submit needs a request payload or a study+config pair"
                )
            if self._resolver is None:
                raise ConfigurationError(
                    "scheduler has no request resolver; submit study+config"
                )
            name_, study, config = self._resolver(request)
            name = name or name_
        if config is None:
            raise ConfigurationError("submit needs a StudyConfig")
        if priority is None:
            priority = int((request or {}).get("priority", 0))
        config = replace(config, out_dir=str(self._store_dir))
        specs = expand_trials(study, config.seeds)
        fingerprint = _fingerprint(study, specs)
        job = StudyJob(
            job_id=job_id or f"job-{uuid.uuid4().hex[:12]}",
            name=name or study.name,
            study=study,
            config=config,
            priority=priority,
            request=request,
            fingerprint=fingerprint,
            trials_total=len(specs),
            submitted_s=time.time(),
        )
        with self._wake:
            if job.job_id in self._jobs:
                raise ConfigurationError(
                    f"job id {job.job_id!r} already submitted"
                )
            self._jobs[job.job_id] = job
            heapq.heappush(self._queue, (-priority, self._seq, job.job_id))
            self._seq += 1
            self._journal({
                "event": "submit",
                "job_id": job.job_id,
                "name": job.name,
                "priority": job.priority,
                "fingerprint": job.fingerprint,
                "trials_total": job.trials_total,
                "request": request,
            })
            self._wake.notify()
        return job

    def cancel(self, job_id: str) -> StudyJob:
        """Cancel one job; terminal jobs are returned unchanged."""
        with self._lock:
            job = self._require(job_id)
            if job.state in TERMINAL_STATES:
                return job
            job.cancel_event.set()
            if job.state is JobState.QUEUED:
                self._finish(job, JobState.CANCELLED,
                             error="cancelled while queued")
        return job

    def get(self, job_id: str) -> StudyJob:
        """The live job record (raises ConfigurationError when unknown)."""
        with self._lock:
            return self._require(job_id)

    def jobs(self) -> list[StudyJob]:
        """Every known job, newest submission first."""
        with self._lock:
            return sorted(
                self._jobs.values(),
                key=lambda job: job.submitted_s,
                reverse=True,
            )

    def metrics_snapshot(self) -> dict[str, Any]:
        """Queue depth, per-state counts and the store hit/miss counters."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            full_hits = sum(1 for j in self._jobs.values() if j.cache_hit)
            return {
                "jobs": states,
                "queue_depth": sum(
                    1 for j in self._jobs.values()
                    if j.state is JobState.QUEUED
                ),
                "store": {
                    "trial_hits": self._trial_hits,
                    "trial_misses": self._trial_misses,
                    "full_hits": full_hits,
                },
            }

    # -- recovery ----------------------------------------------------------

    def recover(self) -> int:
        """Re-enqueue journaled jobs that never reached a terminal state.

        Returns the number of jobs re-submitted.  Completed trials are
        not re-run — the jobs resume from their content-addressed
        artifacts exactly like a killed ``run_study``.
        """
        if not self._journal_path.exists():
            return 0
        submitted: dict[str, dict[str, Any]] = {}
        finished: set[str] = set()
        with self._journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # partial write from a killed service
                job_id = event.get("job_id")
                if not isinstance(job_id, str):
                    continue
                if event.get("event") == "submit":
                    submitted[job_id] = event
                elif event.get("event") == "terminal":
                    finished.add(job_id)
        recovered = 0
        for job_id, event in submitted.items():
            if job_id in finished or job_id in self._jobs:
                continue
            request = event.get("request")
            if not isinstance(request, dict) or self._resolver is None:
                continue  # live-object submissions cannot be rebuilt
            try:
                self.submit(
                    request=request,
                    priority=int(event.get("priority", 0)),
                    job_id=job_id,
                )
            except ConfigurationError:
                continue  # a request the current registry cannot resolve
            recovered += 1
        return recovered

    # -- internals ---------------------------------------------------------

    def _require(self, job_id: str) -> StudyJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ConfigurationError(f"unknown job {job_id!r}")
        return job

    def _journal(self, event: dict[str, Any]) -> None:
        try:
            encoded = json.dumps(event)
        except TypeError:
            event = {k: v for k, v in event.items() if k != "request"}
            event["request"] = None
            encoded = json.dumps(event)
        with self._journal_path.open("a", encoding="utf-8") as handle:
            handle.write(encoded + "\n")
            handle.flush()

    def _finish(
        self, job: StudyJob, state: JobState, error: str | None = None
    ) -> None:
        """Terminal transition + journal line (caller holds the lock)."""
        job.state = state
        job.error = error
        job.finished_s = time.time()
        self._journal({
            "event": "terminal",
            "job_id": job.job_id,
            "state": state.value,
            "error": error,
        })

    def _next_job(self) -> StudyJob | None:
        """Pop the highest-priority queued job (caller holds the lock)."""
        while self._queue:
            _, _, job_id = heapq.heappop(self._queue)
            job = self._jobs.get(job_id)
            if job is not None and job.state is JobState.QUEUED:
                return job
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                job = self._next_job()
                while job is None and not self._stopping:
                    self._wake.wait(timeout=0.5)
                    job = self._next_job()
                if job is None:
                    return  # stopping, queue drained
                job.state = JobState.RUNNING
                job.started_s = time.time()
            self._run_job(job)

    def _run_job(self, job: StudyJob) -> None:
        """Execute one job; identical fingerprints serialize on a lock."""
        with self._lock:
            flock = self._fingerprint_locks.setdefault(
                job.fingerprint, threading.Lock()
            )

        def on_trial(result: Any, done: int, total: int) -> None:
            with self._lock:
                job.trials_done = done
                if isinstance(result, TrialFailure):
                    job.trials_failed += 1
                    if len(job.failure_notes) < 8:
                        job.failure_notes.append({
                            "trial_id": result.trial_id,
                            "variant": result.variant,
                            "seed": result.seed,
                            "error": result.error,
                        })

        try:
            with flock:
                if job.cancel_event.is_set():
                    raise StudyCancelled("cancelled before execution")
                result = execute_study(
                    job.study, job.config,
                    on_trial=on_trial, cancel=job.cancel_event,
                )
            # Aggregated inside the isolation boundary (a study's
            # ``metrics`` may raise) and outside the scheduler lock.
            metrics = {
                variant: {
                    metric: {
                        "mean": ci.mean,
                        "half_width": ci.half_width,
                        "n": ci.n,
                    }
                    for metric, ci in stats.items()
                }
                for variant, stats in aggregate(job.study, result).items()
            }
        except StudyCancelled as error:
            with self._lock:
                self._finish(job, JobState.CANCELLED, error=str(error))
            return
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            with self._lock:
                self._finish(
                    job, JobState.FAILED,
                    error=f"{type(error).__name__}: {error}",
                )
            return
        with self._lock:
            job.result = result
            job.trials_resumed = result.resumed
            job.trials_done = len(result.trials) + len(result.failures)
            job.trials_failed = len(result.failures)
            job.wall_s = result.wall_s
            job.cache_hit = (
                result.resumed == job.trials_total and job.trials_total > 0
            )
            job.metrics = metrics
            self._trial_hits += result.resumed
            self._trial_misses += job.trials_total - result.resumed
            self._finish(job, JobState.DONE)
