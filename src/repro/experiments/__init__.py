"""Multi-seed, multi-configuration studies on one pluggable engine.

Every headline number in the reproduction — precision/recall (Section 3),
offload fractions (Section 4), bill savings and the equation 14 verdict
(Section 5) — is a distribution over seeds, not a point estimate.  This
package runs those distributions through a single *study engine*:

``engine``
    The :class:`~repro.experiments.engine.Study` protocol (``build → run
    → measure`` per trial, each trial one :class:`Trial` record: identity
    plus the kind's ``trial_fields`` values) plus the data model and
    artifact format: :class:`StudyConfig`, :class:`StudyResult`,
    content-addressed JSONL artifacts
    (``<study>_<fingerprint>_trials.jsonl`` — see
    :func:`~repro.experiments.engine.study_fingerprint`) and
    :func:`~repro.experiments.engine.run_study`, a blocking front end
    over the scheduler's execution core.

``scheduler``
    The execution machinery, split out of ``run_study``:
    :func:`~repro.experiments.scheduler.execute_study` owns the
    seed × grid expansion, ``ProcessPoolExecutor`` fan-out, per-variant
    world caching (trials that share a world configuration reuse one
    build), resumable sharded execution (skip-completed on rerun),
    per-trial phase timings recorded next to (never inside) each result,
    thread-safe per-trial deadlines and the ``on_trial`` / ``cancel``
    hooks; and
    :class:`~repro.experiments.scheduler.StudyScheduler` is a resumable
    priority job queue over it (the engine room of ``repro serve`` — see
    the data-flow section below).

``ensemble`` / ``offload`` / ``economics`` / ``joint`` / ``failover``
    The five studies: :class:`DetectionStudy` (Section 3 pipeline:
    world → campaign → filters → ground-truth validation),
    :class:`OffloadStudy` (Section 4: exclusions → estimator → greedy
    expansion, with the Section 4.2 exclusion rules switchable per
    variant), :class:`EconomicsStudy` (Sections 3+4+5 end-to-end:
    measured offload curve → decay fit → 95th-percentile billing →
    eq. 14 viability), :class:`JointStudy` (below) and
    :class:`FailoverStudy` (offload savings eroded by pseudowire dark
    windows), each with its variant type, grid builder and a
    ``metrics`` method naming every per-trial scalar its report prints.
    All of them run through :func:`run_study`.

``aggregate``
    :func:`~repro.experiments.aggregate.aggregate` turns a finished
    :class:`StudyResult` into per-variant mean ± 95% CI aggregates of
    ``Study.metrics`` — the one aggregate every report, the ``repro
    serve`` job's ``metrics`` and the speed benchmark read.

``requests``
    The study registry behind every front end: for each study kind
    (``detection``, ``offload``, ``economics``, ``joint``, ``mega``) a
    typed request schema, a factory from a validated request to its
    ``Study``, and a renderer; :func:`render_report` reports any finished
    run and appends its coverage note.  ``repro study <kind>`` maps its
    flags onto the schema, ``repro detect|offload|report|econ`` run
    one-seed requests, ``POST /studies`` bodies are requests, and
    scenarios render through the same registry.

``mega`` / ``transport``
    The mega-scale tier: :class:`MegaStudy` runs the greedy Euro-IX
    expansion over 10⁵+-network :class:`~repro.sim.megatopo.MegaWorld`
    worlds (columnar pool, CAIDA-style hierarchy, no per-network
    objects), and :mod:`~repro.experiments.transport` is the zero-copy
    shared-memory world transport those worlds ride to worker processes
    (see the lifecycle section below).  CLI: ``repro study mega``.

``scenarios``
    The scenario library: named, parameterized grids over these studies
    (``behavior-stress``, ``exclusion-ablation``, ``price-plane``,
    ``joint``, ``failover``, ``churned-detection``), each a function
    from a preset name to its variant grid.  A scenario runs as a
    ``{"study": "scenario"}`` request; the CLI front end is ``repro
    scenarios list|run``.

The fault data flow (chaos schedule → probes → billing)
-------------------------------------------------------
Fault injection is deterministic and *opt-in*: setting a
:class:`~repro.faults.schedule.FaultConfig` on a
:class:`~repro.core.detection.campaign.CampaignConfig` (or a
:class:`FailoverVariant`) materializes a
:class:`~repro.faults.schedule.FaultSchedule` once per campaign from
dedicated, named child streams of the campaign seed — never from the
streams the clean simulation consumes, so ``faults=None`` and zero
intensity are byte-identical to a fault-free run.  The streams:

* ``(seed, "faults", "pseudowire-dark", ixp, address)`` — remote-peer
  dark windows (failover RTT shifts; transit fallback in the failover
  study);
* ``(seed, "faults", "port-flap", ixp, address)`` — IXP port flaps
  (probes unanswered while flapping);
* ``(seed, "faults", "lg-outage", server)`` and ``(seed, "faults",
  "rate-limit-storm", server)`` — LG unavailability windows, merged
  into one per-server downtime function;
* ``(seed, "faults", "probe-loss", ixp)`` — loss bursts scaling every
  response probability down by the configured severity;
* ``(seed, "faults", "backoff", ixp, operator)`` — retry jitter.  The
  probe engine and its per-probe reference plan retries on the
  *identical* planned query grid with this one stream, so retry counts,
  served masks and effective send times agree bit-for-bit across them.

Seed batches (world-key groups → one work item)
-----------------------------------------------
Pending trials always group by world key, so every world builds once,
whatever the grid.  ``StudyConfig.trial_batch = k`` (CLI:
``--trial-batch``) only packs up to k consecutive groups into one work
item, which runs them in turn under one GC pause: each group builds its
world, measures its trials under the per-trial deadline, retries and
quarantine, and drops the world before the next build.  A batch
therefore holds one world in memory at a time, a poison seed fails
alone, every trial records its own ``build_s`` and ``measure_s``, and
results are those of the unbatched run (``tests/test_trial_batch.py``).
Resume is per trial: a run killed mid-batch re-executes only the
unwritten trials.  On the shared-memory transport every world keeps its
own publish item, at any ``trial_batch``.

The shared-memory world transport (build once → attach everywhere)
-------------------------------------------------------------------
``StudyConfig.transport = "shm"`` (CLI: ``--transport shm``) turns on
the zero-copy dispatch path for studies exposing the two transport
hooks — ``export_world(world) -> (meta, columns)`` returning plain
numeric numpy arrays, and ``attach_world(meta, columns) -> world``
rebuilding a view-backed world.  The lifecycle, end to end:

1. **Reserve (parent).**  For each world-key group the parent reserves
   a segment name with
   :meth:`~repro.experiments.transport.SegmentManager.reserve` and
   submits one *publish* item carrying it.  No pool, name or segment is
   made when every trial resumes from the artifact.
2. **Build + pack (worker).**  A pool worker (or the parent itself on
   the inline ``workers=1`` driver) builds the world under the trial
   deadline, exports its columns and packs them into one
   ``multiprocessing.shared_memory`` segment under the reserved name
   (:meth:`~repro.experiments.transport.SegmentManager.create` with
   ``name``).  Only a
   :class:`~repro.experiments.transport.SegmentDescriptor` (segment
   name + per-column dtype/shape/offset) goes back — bytes, not
   megabytes; the columns never pass through the parent's heap.  Worlds
   of different groups build in parallel.
3. **Adopt + fan out (parent).**  The moment a descriptor lands, the
   parent adopts the segment
   (:meth:`~repro.experiments.transport.SegmentManager.adopt`, one
   reference per trial of the group) and submits one *attach* item per
   trial, ahead of any build still queued, so a world's trials overlap
   the next build.
4. **Attach (worker).**  The worker attaches, rebuilds read-only numpy
   views over the shared pages and measures the trial; its ``finally``
   closes the mapping.  Workers share the parent's resource tracker and
   never unregister a segment: that is the owner's unlink.
5. **Release + unlink (parent).**  As each trial's future completes
   (success, failure or retry exhaustion) the parent releases one
   reference; the segment is unlinked at zero.  ``close_all()`` runs
   in the engine's ``finally`` so quarantined groups, pool restarts,
   and interrupted runs all converge on the same sweep, which also
   unlinks every reserved name a dead worker may have half-created — a
   killed study never leaks ``/dev/shm`` segments.  A pool restart
   re-runs an unfinished publish item under a fresh name.

A failed build fails its own group's trials only.  A world that cannot
cross the transport (its export or packing raises) is measured by the
worker that built it — counted in ``StudyResult.transport_fallbacks``
and surfaced by ``coverage_note()``; results are unaffected.  A column
of Python objects is a :class:`~repro.errors.ConfigurationError`, which
stops the study like any other.  Raw
``SharedMemory`` construction outside :mod:`repro.experiments.transport`
is a lint error (``pool-raw-shm``), keeping every segment inside the
refcounted lifecycle above.

The trial-quarantine lifecycle
------------------------------
:func:`run_study` hardens every trial against worker failure.  A trial
that raises (or exceeds ``StudyConfig.trial_timeout_s``) is retried up
to ``trial_retries`` times, then quarantined — recorded as a
:class:`~repro.experiments.engine.TrialFailure` instead of aborting the
study: the group's remaining trials still run, aggregates cover the
survivors, and
:meth:`~repro.experiments.engine.StudyResult.coverage_note` reports the
degradation.  The deadline is a ``SIGALRM`` itimer, which only a main
thread can take: a study with a budget that runs on any other thread
runs its trials in worker processes even at ``workers=1``, so a
timed-out trial is stopped, not abandoned while it keeps running.  With
``out_dir`` set, a quarantined trial appends a ``failed`` JSONL row::

    {"trial_id": N, "variant": "...", "seed": S,
     "status": "failed", "error": "ExcType: message", "attempts": K}

Failed rows are fingerprint-compatible with success rows and resume-safe
(a rerun skips them like completed trials).
:class:`~repro.errors.ConfigurationError` is never quarantined — a
malformed grid should abort loudly.  A ``BrokenProcessPool`` (a worker
died mid-group) restarts the executor once over the unfinished work
items before surfacing.

The serve data flow (HTTP request → job queue → content-addressed store)
-------------------------------------------------------------------------
``repro serve`` (package :mod:`repro.serve`) fronts the scheduler over
stdlib-only asyncio HTTP.  One submission flows:

1. **Resolve.**  ``POST /studies`` carries a declarative JSON request
   (``{"study": "detection", "config": {...}}``);
   :func:`repro.serve.jobs.resolve_request` validates it against the
   study registry (:mod:`repro.experiments.requests`) and turns it into a
   live ``(Study, StudyConfig)`` pair — and the scheduler journals the JSON
   verbatim to ``<store>/jobs.jsonl``, so a killed service re-enqueues
   the job on restart (:meth:`StudyScheduler.recover`).
2. **Queue.**  The job enters the priority queue (higher ``priority``
   first, FIFO ties) with ``out_dir`` redirected into the scheduler's
   store directory, making every artifact content-addressed by the
   configuration fingerprint.
3. **Execute or answer from the store.**  A scheduler thread runs
   :func:`execute_study` under a per-fingerprint lock: trials already
   in the artifact resume without executing (counted as *trial hits*),
   and a submission whose fingerprint has every trial on disk completes
   as a *full cache hit* without running anything — duplicate
   submissions can never compute the same trial twice.  A job with a
   per-trial deadline runs its trials in worker processes, each on its
   worker's main thread under the ``SIGALRM`` itimer, because these
   scheduler threads cannot take the signal; a timed-out trial stops
   there, and no worker outlives its job.
4. **Observe.**  ``GET /studies/{id}`` snapshots progress (``?watch=1``
   streams it as chunked JSON lines), ``DELETE`` cancels (queued jobs
   immediately; running jobs at the next dispatch step, sweeping shm
   segments), ``GET /results/{fingerprint}`` replays artifact rows, and
   ``GET /metrics`` exposes the hit/miss counters.

``experiments`` never imports ``serve`` — the resolver is injected — so
the engine stays usable without the service.  CLI: ``repro serve``
(``--smoke`` runs the end-to-end gate behind ``make serve-smoke``).

The joint data flow (detected set → offload → billing)
------------------------------------------------------
:class:`JointStudy` is the one study whose trials cross the Section 3/4
boundary.  Per seed it builds a *world family* — one detection world and
one offload world on the same trial seed — and chains them:

1. the detection campaign runs and is validated against ground truth,
   yielding the trial's measured confusion (precision, recall,
   false-positive rate) and the ground-truth remote fraction;
2. the offload world's candidate members are assigned oracle remoteness
   at that measured fraction, and the confusion is replayed over them:
   remote peers are *detected* with probability ``recall``, direct
   members are falsely called with the measured false-positive rate;
3. the **detected** set — not the oracle — is fed through
   :meth:`~repro.core.offload.PeerGroups.restrict` into the
   :class:`~repro.core.offload.OffloadEstimator`, giving the offload
   fraction an operator would estimate from its own peer map, alongside
   the oracle and realized (detected ∩ oracle) fractions;
4. all three peer maps are billed under the Section 2.1 95th-percentile
   scheme on one consistent component decomposition of the transit
   series, yielding the realized savings and the forecast (believed −
   realized) billing error.

Usage — 16 seeds × three thresholds of the 3-IXP detection world::

    from repro.experiments import (
        DetectionStudy, StudyConfig, grid_variants, render_report, run_study,
    )
    from repro.sim.detection_world import DetectionWorldConfig
    from repro.sim.scenarios import mini_specs

    study = DetectionStudy(variants=grid_variants(
        world=DetectionWorldConfig(specs=mini_specs()),
        axes={"campaign.remoteness_threshold_ms": (5.0, 10.0, 20.0)},
    ))
    config = StudyConfig(
        seeds=tuple(range(16)),
        workers=0,          # 0 = one process per core (capped at #groups)
    )
    result = run_study(study, config)     # builds each seed's world ONCE
    print(render_report(study, result))   # mean ± 95% CI per variant

Grids sweep any config field via dotted axes (``world.<field>``,
``campaign.<field>``, ``filters.<field>``); each trial's campaign seed is
derived from its world seed via :func:`repro.rand.derive_seed`, so
studies are fully reproducible and adding variants never perturbs
existing trials.  Setting ``StudyConfig.out_dir`` makes the run
resumable: kill it after N trials, rerun with the same config, and only
the remaining trials execute.  The CLI front end is ``repro study
<kind>``; ``examples/ensemble_study.py``, ``examples/economics_study.py``
and ``examples/joint_study.py`` are worked examples.
"""

from repro.experiments.aggregate import (
    MeanCI,
    aggregate,
    mean_ci,
)
from repro.experiments.engine import (
    Study,
    StudyConfig,
    StudyResult,
    Trial,
    expand_trials,
    run_study,
    study_fingerprint,
)
from repro.experiments.scheduler import (
    JobState,
    StudyCancelled,
    StudyJob,
    StudyScheduler,
    execute_study,
)
from repro.experiments.ensemble import (
    ConfigVariant,
    DetectionStudy,
    TrialSpec,
    grid_variants,
)
from repro.experiments.offload import (
    OffloadStudy,
    OffloadTrialSpec,
    OffloadVariant,
    offload_grid_variants,
)
from repro.experiments.economics import (
    EconomicsStudy,
    EconomicsTrialSpec,
    EconomicsVariant,
    economics_grid_variants,
)
from repro.experiments.joint import (
    JointStudy,
    JointTrialSpec,
    JointVariant,
)
from repro.experiments.failover import (
    FailoverStudy,
    FailoverTrialSpec,
    FailoverVariant,
    measure_failover_trial,
)
from repro.experiments.mega import (
    MegaStudy,
    MegaTrialSpec,
    MegaVariant,
    measure_mega_trial,
)
from repro.experiments.transport import (
    AttachedColumns,
    ColumnSpec,
    SegmentDescriptor,
    SegmentManager,
    attach_columns,
)
from repro.experiments.scenarios import (
    SCENARIOS,
    Scenario,
    scenario_names,
)
from repro.experiments.requests import (
    STUDIES,
    StudyKind,
    render_report,
    request_kinds,
    resolve,
)

__all__ = [
    "AttachedColumns",
    "ColumnSpec",
    "ConfigVariant",
    "DetectionStudy",
    "EconomicsStudy",
    "EconomicsTrialSpec",
    "EconomicsVariant",
    "FailoverStudy",
    "FailoverTrialSpec",
    "FailoverVariant",
    "JobState",
    "JointStudy",
    "JointTrialSpec",
    "JointVariant",
    "MeanCI",
    "MegaStudy",
    "MegaTrialSpec",
    "MegaVariant",
    "OffloadStudy",
    "OffloadTrialSpec",
    "OffloadVariant",
    "SCENARIOS",
    "STUDIES",
    "Scenario",
    "SegmentDescriptor",
    "SegmentManager",
    "Study",
    "StudyCancelled",
    "StudyConfig",
    "StudyJob",
    "StudyKind",
    "StudyResult",
    "StudyScheduler",
    "Trial",
    "TrialSpec",
    "aggregate",
    "attach_columns",
    "economics_grid_variants",
    "execute_study",
    "expand_trials",
    "grid_variants",
    "mean_ci",
    "measure_failover_trial",
    "measure_mega_trial",
    "offload_grid_variants",
    "render_report",
    "request_kinds",
    "resolve",
    "run_study",
    "scenario_names",
    "study_fingerprint",
]
