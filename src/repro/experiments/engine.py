"""The generic study engine: one pluggable trial contract for every study.

A *study* is anything that follows the ``build → run → measure`` trial
contract of the :class:`Study` protocol: detection (Section 3), offload
(Section 4) and the end-to-end economics pipeline (Sections 3+4+5) are all
instances.  This module owns the **data model** of a study run — the
protocol itself, :class:`StudyConfig`, :class:`StudyResult`, the
content-addressed JSONL artifact format and its resumable reader/writer —
while the **execution machinery** (seed × grid expansion into world-key
groups, ``ProcessPoolExecutor`` fan-out, shared-memory transport,
per-trial deadlines, retry and quarantine) lives in
:mod:`repro.experiments.scheduler`, where the same code also powers the
``repro serve`` job queue.  :func:`run_study` remains the one-call
blocking front end: it delegates to
:func:`repro.experiments.scheduler.execute_study` with no hooks attached.

Artifacts are **content-addressed**: every run's trial rows land in
``<out_dir>/<study>_<fingerprint>_trials.jsonl``, where the fingerprint
hashes the study name plus every resolved trial spec.  Two different
configurations of the same study therefore coexist in one directory, and
a repeated identical configuration is answered from the artifact without
recomputation — the property the ``repro serve`` result store is built
on.  Pre-fingerprint artifacts (``<study>_trials.jsonl``) are still read
and appended when their header fingerprint matches the current
configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable, Protocol, Sequence, TextIO

from repro.errors import ConfigurationError

#: Schema tag written to every artifact header line.  Success rows are
#: ``{"trial_id", "variant", "seed", "result", "timings"}``: ``result``
#: is the trial's :meth:`Trial.payload`, pure model output, and
#: ``timings`` the scheduler's phase seconds for that trial (``build_s``
#: and ``measure_s``; rows written by older versions may carry
#: ``batch_s``, a seed-batch trial's share of its batch call, and still
#: read).
#: Quarantined trials add a failure row instead: ``{"trial_id",
#: "variant", "seed", "status": "failed", "error", "attempts"}`` — same
#: schema tag, same fingerprint, so resumes skip failed trials rather
#: than re-running them.
ARTIFACT_SCHEMA = "study_trials/v2"

#: The schema before timings left the results.  Its rows carried the
#: phase seconds inside ``result``; the reader moves them to ``timings``.
_V1_SCHEMA = "study_trials/v1"

#: v1 ``result`` timing keys and the ``timings`` keys they become.
_V1_TIMINGS = {
    "build_s": "build_s",
    "collect_s": "collect_s",
    "filter_s": "filter_s",
    "study_s": "measure_s",
}


@dataclass(frozen=True, slots=True)
class Trial:
    """One trial's record: its identity plus the kind's measured values.

    ``values`` holds the study's ``trial_fields`` in that order; a tuple
    value crosses JSON as a list and is read back as a tuple, so a
    resumed trial ``==`` the measured one.
    """

    trial_id: int
    variant: str
    seed: int
    values: dict[str, Any]

    def payload(self) -> dict[str, Any]:
        """The artifact row's ``result``: identity first, then the values."""
        return {
            "trial_id": self.trial_id,
            "variant": self.variant,
            "seed": self.seed,
            **self.values,
        }


class Study(Protocol):
    """The build → run → measure contract one trial family implements.

    Implementations are small frozen dataclasses (they are pickled to the
    worker processes together with each trial group).  ``resolve`` turns a
    (variant, seed) cell of the grid into a fully-specified picklable trial
    spec; ``world_key`` names the world that spec needs, and trials whose
    keys compare equal share one build; ``measure`` runs the study on the
    built world and returns the trial's :class:`Trial`.
    """

    @property
    def name(self) -> str:
        """Short identifier: artifact file names and report labels."""
        ...

    @property
    def trial_fields(self) -> tuple[str, ...]:
        """The keys of every trial's ``values``, in order (checked when an
        artifact row is read back)."""
        ...

    def variant_names(self) -> tuple[str, ...]:
        """The grid's variant names, in configuration order."""
        ...

    def resolve(self, variant: str, seed: int, trial_id: int) -> Any:
        """Fully-resolved picklable spec for one (variant, seed) trial."""
        ...

    def world_key(self, spec: Any) -> Hashable:
        """Cache key of the world ``spec`` needs (equal keys share builds)."""
        ...

    def build(self, spec: Any) -> Any:
        """Build the world for one trial group (cached across the group)."""
        ...

    def measure(self, spec: Any, world: Any) -> Trial:
        """Run one trial against a built world; returns its record."""
        ...

    def metrics(self, result: Trial) -> dict[str, float]:
        """Every per-trial scalar the kind's report and job metrics
        aggregate (:func:`repro.experiments.aggregate.aggregate`).

        A key the trial cannot define (precision with nothing called
        remote) is left out rather than set to a placeholder, so the
        aggregate covers the trials that define it.
        """
        ...


class VariantStudy:
    """The base of the built-in studies: a grid of named variant cells.

    Subclasses are frozen slots dataclasses with a ``variants`` field
    (each cell has a ``name``) and the class attributes ``name`` and
    ``trial_fields``.
    """

    __slots__ = ()
    variants: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigurationError("a study needs at least one variant")
        if len({v.name for v in self.variants}) != len(self.variants):
            raise ConfigurationError("variant names must be distinct")

    def variant_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variants)

    def variant(self, name: str) -> Any:
        """The variant cell ``resolve`` expands."""
        return next(v for v in self.variants if v.name == name)

    def encode(self, trial: Trial) -> dict[str, Any]:
        # Only perfbench/ calls this (its results digests go through
        # ``study.encode``); the engine writes ``trial.payload()`` itself.
        return trial.payload()


@dataclass(frozen=True, slots=True)
class StudyConfig:
    """Seed list, parallelism and (optional) artifact directory.

    ``workers=1`` runs trials inline in this process (what tests use),
    except that a study with ``trial_timeout_s`` run off the main thread
    uses one worker process (see ``trial_timeout_s``); ``workers=0`` uses
    one process per core, capped at the group count.
    With ``out_dir`` set the run is resumable: completed trials are
    appended to ``<out_dir>/<study>_<fingerprint>_trials.jsonl`` as they
    finish, and a rerun with an identical study configuration skips them.
    Different configurations hash to different fingerprints, so many
    studies — or many variants of one study — share a single directory
    without colliding: that directory *is* the content-addressed result
    store ``repro serve`` answers repeated submissions from.
    """

    seeds: tuple[int, ...]
    workers: int = 0
    out_dir: str | None = None
    #: Wall-clock budget per trial (None: unlimited), enforced by a
    #: SIGALRM itimer, which only a main thread can take.  Off the main
    #: thread (the ``repro serve`` scheduler) the study's trials run in
    #: worker processes even at ``workers=1``, each on its worker's main
    #: thread, so a timed-out trial stops instead of running on.  A
    #: trial that blows the budget is retried and then quarantined like
    #: any other failure.  Each build and each measure of a batched item
    #: gets the budget on its own, as in an unbatched run.
    trial_timeout_s: float | None = None
    #: Extra measure attempts before a trial is declared poison.  A
    #: poison trial is quarantined: it becomes a ``failed`` artifact row
    #: and the study completes over the survivors.
    trial_retries: int = 0
    #: Worlds per work item under one GC pause: up to this many world-key
    #: groups run one after another in one item, each built, measured
    #: and dropped before the next build.  ``1`` (default) gives every
    #: world its own item.  Results, world builds and timeout / retry /
    #: quarantine semantics are those of an unbatched run; the
    #: shared-memory transport keeps one item per world.
    trial_batch: int = 1
    #: How built worlds reach the worker processes.  ``"pickle"``
    #: (default) ships each trial group's study+specs and rebuilds the
    #: world inside the worker.  ``"shm"`` builds each world-key group's
    #: world once, in a worker, which packs its array columns into a
    #: shared-memory segment the parent owns and refcounts; the trials'
    #: workers attach zero-copy views.  Requires
    #: ``export_world``/``attach_world`` hooks on the study (studies
    #: without them silently keep the pickle path).
    transport: str = "pickle"

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("a study needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("study seeds must be distinct")
        if self.workers < 0:
            raise ConfigurationError("workers cannot be negative")
        if self.trial_timeout_s is not None and not (
            math.isfinite(self.trial_timeout_s) and self.trial_timeout_s > 0
        ):
            raise ConfigurationError(
                "trial_timeout_s must be a positive finite number of seconds"
            )
        if self.trial_retries < 0:
            raise ConfigurationError("trial_retries cannot be negative")
        if self.trial_batch < 1:
            raise ConfigurationError("trial_batch must be at least 1")
        if self.transport not in ("pickle", "shm"):
            raise ConfigurationError(
                f"unknown transport {self.transport!r} "
                "(expected 'pickle' or 'shm')"
            )


@dataclass(frozen=True, slots=True)
class TrialFailure:
    """A quarantined trial: identity, the error, and attempts consumed.

    Stands in a result's slot so resumes and trial-order bookkeeping keep
    working; carries no metrics, so the aggregates cover survivors only
    (the degraded-coverage note says how many are missing).
    """

    trial_id: int
    variant: str
    seed: int
    error: str
    attempts: int = 1


@dataclass
class StudyResult:
    """All trial results (trial-id order) plus execution accounting.

    A run carries no aggregates: reports and job metrics reduce it with
    :func:`repro.experiments.aggregate.aggregate` when they need them.
    """

    study: str
    config: StudyConfig
    trials: list[Any]
    wall_s: float = 0.0
    world_builds: int = 0   # worlds actually built this run
    #: Trials of the groups whose world was built, minus the builds.
    world_reuses: int = 0
    resumed: int = 0        # trials loaded from artifacts instead of run
    #: Phase seconds the scheduler recorded for each surviving trial, by
    #: trial id (resumed trials as their artifact rows carry them).  Never
    #: part of a result, so results compare and digest as model output.
    timings: dict[int, dict[str, float]] = field(default_factory=dict)
    #: Quarantined trials (trial-id order); ``trials`` holds survivors only.
    failures: list[TrialFailure] = field(default_factory=list)
    pool_restarts: int = 0  # broken process pools survived this run
    #: Always 0: a batched item runs every group through the per-trial
    #: path, so nothing falls back.  Kept, with its job-snapshot key, for
    #: readers of the benchmark trace until ``trial_batch`` itself goes.
    batch_fallbacks: int = 0
    #: Trials whose world could not cross the shared-memory transport
    #: (its export or packing failed) and were measured by the worker
    #: that built it instead.  A fallback is a performance detour, not
    #: lost coverage.
    transport_fallbacks: int = 0

    def by_variant(self) -> dict[str, list[Any]]:
        """Trials grouped by variant name, in trial order."""
        grouped: dict[str, list[Any]] = {}
        for trial in self.trials:
            grouped.setdefault(trial.variant, []).append(trial)
        return grouped

    def coverage_note(self) -> str | None:
        """Human-readable degraded-coverage warning, or None when clean.

        Transport fallbacks and pool restarts are reported separately
        from quarantined trials: each re-executes the same trials by
        another route (identical results, no lost coverage), while a
        quarantined trial is missing from the aggregates.
        """
        parts: list[str] = []
        if self.failures:
            ids = ", ".join(str(f.trial_id) for f in self.failures[:8])
            suffix = ", ..." if len(self.failures) > 8 else ""
            parts.append(
                f"degraded coverage: {len(self.failures)} of "
                f"{len(self.trials) + len(self.failures)} trials failed and "
                f"were quarantined (trial ids {ids}{suffix}); aggregates "
                "cover the surviving trials only"
            )
        if self.transport_fallbacks:
            parts.append(
                f"{self.transport_fallbacks} trial(s) fell back from "
                "shared-memory to pickle world transport (results are "
                "unaffected; the transport is a performance path only)"
            )
        if self.pool_restarts:
            parts.append(
                f"the worker pool broke and was restarted "
                f"{self.pool_restarts} time(s); its unfinished trials were "
                "re-dispatched (results are unaffected)"
            )
        return "; ".join(parts) if parts else None


def expand_trials(study: Study, seeds: Sequence[int]) -> list[Any]:
    """The fully-resolved trial list: variant-major, stable trial ids."""
    specs: list[Any] = []
    for variant in study.variant_names():
        for seed in seeds:
            specs.append(study.resolve(variant, seed, trial_id=len(specs)))
    return specs


def _fingerprint(study: Study, specs: Sequence[Any]) -> str:
    """Configuration fingerprint addressing the run's artifact.

    Dataclass reprs are deterministic and cover every resolved field, so
    any change to seeds, variants or study knobs hashes to a *different*
    artifact path instead of silently mixing two configurations in one
    file — and an identical configuration always hashes to the same one,
    which is what lets the result store answer repeats without running a
    single trial.
    """
    payload = json.dumps([study.name, [repr(s) for s in specs]])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def study_fingerprint(study: Study, seeds: Sequence[int]) -> str:
    """Public fingerprint of ``study`` run over ``seeds``.

    The content address of the run's artifact: equal configurations map
    to equal fingerprints.  ``repro serve`` keys its result store and
    ``GET /results/{fingerprint}`` lookups on this value.
    """
    return _fingerprint(study, expand_trials(study, seeds))


def _legacy_artifact_path(study: Study, out_dir: str) -> Path:
    """Pre-fingerprint artifact name (one configuration per directory)."""
    return Path(out_dir) / f"{study.name}_trials.jsonl"


def _artifact_path(
    study: Study, out_dir: str, fingerprint: str | None = None
) -> Path:
    """The artifact path of one study run under ``out_dir``.

    With ``fingerprint`` given, the exact content-addressed path.
    Without it — the form tests and tools use to locate an artifact
    after a run — the single existing fingerprint-named artifact of
    this study in the directory, falling back to the legacy
    (un-fingerprinted) name when there is not exactly one candidate.
    """
    if fingerprint is not None:
        return Path(out_dir) / f"{study.name}_{fingerprint}_trials.jsonl"
    candidates = sorted(Path(out_dir).glob(f"{study.name}_*_trials.jsonl"))
    if len(candidates) == 1:
        return candidates[0]
    return _legacy_artifact_path(study, out_dir)


def _artifact_header(path: Path, first: str | None = None) -> dict[str, Any]:
    """Parse and validate an artifact's header line.

    ``first`` is the file's first line when the caller already read it.
    Raises :class:`ConfigurationError` for files that are not study
    artifacts at all (unparseable first line, not a JSON object, wrong
    schema tag) — a foreign file squatting on an artifact name should
    fail loudly, not be silently shadowed.  Both the current schema and
    v1 are accepted.
    """
    if first is None:
        with path.open("r", encoding="utf-8") as handle:
            first = handle.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        raise ConfigurationError(f"{path} is not a study artifact file")
    if not isinstance(header, dict) or header.get("schema") not in (
        ARTIFACT_SCHEMA, _V1_SCHEMA
    ):
        raise ConfigurationError(
            f"{path} has schema "
            f"{header.get('schema') if isinstance(header, dict) else None!r}, "
            f"expected {ARTIFACT_SCHEMA!r}"
        )
    return header


def _resolve_artifact_path(
    study: Study, out_dir: str, fingerprint: str
) -> Path:
    """The path this run reads *and* appends: content-addressed, with a
    legacy fallback.

    Preference order: an existing fingerprint-named artifact; else a
    legacy ``<study>_trials.jsonl`` whose header fingerprint matches the
    current configuration (pre-content-addressing runs stay resumable in
    place); else the fingerprint-named path, created fresh.  A legacy
    file written by a *different* configuration is left untouched — the
    two configurations coexist, which is the point of content
    addressing.
    """
    path = _artifact_path(study, out_dir, fingerprint)
    if path.exists():
        return path
    legacy = _legacy_artifact_path(study, out_dir)
    if legacy.exists() and legacy.stat().st_size > 0:
        if _artifact_header(legacy).get("fingerprint") == fingerprint:
            return legacy
    return path


def _from_json(value: Any) -> Any:
    """A payload value as the trial held it: JSON lists were tuples."""
    return tuple(value) if isinstance(value, list) else value


def _load_artifacts(
    study: Study, path: Path, fingerprint: str, trial_count: int
) -> tuple[dict[int, Any], dict[int, dict[str, float]]]:
    """Completed trials from a previous run, and their recorded timings.

    Both maps are empty when nothing is usable.  The file is streamed
    line-by-line — service-scale artifacts (hundreds of seeds × many
    variants) must not be slurped into one list — with the original
    healing semantics intact: a truncated final line (a killed run) is
    skipped; a header whose fingerprint disagrees with the current
    configuration raises instead of silently merging results from two
    different studies, and so does a row whose ``result`` is not a
    :class:`Trial` payload with exactly the study's ``trial_fields``.
    A v1 artifact's rows carry their phase seconds inside ``result``;
    they are moved to the trial's timings (``study_s`` as ``measure_s``)
    before the payload is decoded.
    """
    completed: dict[int, Any] = {}
    timings: dict[int, dict[str, float]] = {}
    if not path.exists():
        return completed, timings
    fields = study.trial_fields
    keys = {"trial_id", "variant", "seed", *fields}
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            return completed, timings
        header = _artifact_header(path, first)
        if header.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"{path} was written by a different study configuration "
                "(seeds/variants changed?); use a fresh --out directory"
            )
        legacy = header["schema"] == _V1_SCHEMA
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # partial write from a killed run
            trial_id = record.get("trial_id")
            if not (isinstance(trial_id, int) and 0 <= trial_id < trial_count):
                continue
            if record.get("status") == "failed":
                completed[trial_id] = TrialFailure(
                    trial_id=trial_id,
                    variant=record.get("variant", ""),
                    seed=record.get("seed", 0),
                    error=record.get("error", ""),
                    attempts=record.get("attempts", 1),
                )
                continue
            payload = record.get("result")
            if not isinstance(payload, dict):
                raise ConfigurationError(
                    f"{path}: trial {trial_id} has no result object"
                )
            timing = record.get("timings")
            if legacy:
                payload = dict(payload)
                timing = {
                    new: payload.pop(old)
                    for old, new in _V1_TIMINGS.items() if old in payload
                } | (timing or {})
            if payload.keys() != keys:
                raise ConfigurationError(
                    f"{path}: trial {trial_id}'s result does not hold the "
                    f"{study.name} fields (missing: "
                    f"{sorted(keys - payload.keys())}; unknown: "
                    f"{sorted(payload.keys() - keys)})"
                )
            completed[trial_id] = Trial(
                payload["trial_id"], payload["variant"], payload["seed"],
                {name: _from_json(payload[name]) for name in fields},
            )
            if timing:
                timings[trial_id] = timing
    return completed, timings


class _ArtifactWriter:
    """Append-only JSONL sink; a no-op when the study runs without out_dir."""

    def __init__(
        self, study: Study, out_dir: str | None, fingerprint: str
    ) -> None:
        self._handle: TextIO | None = None
        if out_dir is None:
            return
        path = _resolve_artifact_path(study, out_dir, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not path.exists() or path.stat().st_size == 0
        needs_newline = False
        if not fresh:
            # A killed run can leave a partial trailing line with no
            # newline; terminate it so the next append starts clean (the
            # loader already skips the unparseable fragment).
            with path.open("rb") as existing:
                existing.seek(-1, 2)
                needs_newline = existing.read(1) != b"\n"
        self._handle = path.open("a", encoding="utf-8")
        if needs_newline:
            self._handle.write("\n")
        if fresh:
            self._write({
                "schema": ARTIFACT_SCHEMA,
                "study": study.name,
                "fingerprint": fingerprint,
            })

    def _write(self, record: dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def append(
        self, result: Trial | TrialFailure,
        timings: dict[str, float] | None = None,
    ) -> None:
        if self._handle is None:
            return
        if isinstance(result, TrialFailure):
            self._write({
                "trial_id": result.trial_id,
                "variant": result.variant,
                "seed": result.seed,
                "status": "failed",
                "error": result.error,
                "attempts": result.attempts,
            })
            return
        self._write({
            "trial_id": result.trial_id,
            "variant": result.variant,
            "seed": result.seed,
            "result": result.payload(),
            "timings": timings,
        })

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def run_study(study: Study, config: StudyConfig) -> StudyResult:
    """Run every not-yet-completed trial of ``study`` under ``config``.

    The blocking front end over
    :func:`repro.experiments.scheduler.execute_study` (no progress hook,
    no cancellation).  Results come back in trial order regardless of
    completion order, so studies are reproducible artifacts: same
    configuration, same report.
    """
    from repro.experiments.scheduler import execute_study

    return execute_study(study, config)
