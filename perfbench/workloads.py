"""The three study workloads: each cycle runs one study cold, then warm.

A cycle calls ``run_study`` on a fresh artifact directory (*cold*: every
trial executes and lands in the content-addressed artifact), then
``WARM_RERUNS`` more times on the same directory (*warm*: every trial is
read back from the artifact and nothing executes).  A warm call takes a
millisecond or two, and the host's CPU speed switches between a fast and
a ~1.8x slower mode for seconds at a time, so a percentile over all of a
run's warm calls reports whichever mode held most of the run.  The warm
percentiles are therefore taken per cycle (one burst, one mode) and
averaged over the run's cycles, as every other timing averages over the
run.  Every cycle runs the
trial seeds ``range(seed, seed + N)``, so every cycle must reproduce the
first one exactly; after the timed window a few sampled seeds are re-run
through the study's reference path (unbatched, or pickle transport) and
must match bit for bit once timing fields are stripped.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean, median
from typing import Any, Callable

import hostspeed
from layers import DETECTION, ECONOMICS, MEGA, install, per_layer_report, span_metrics
from spans import Tracer, load_spans

#: Per-trial timing fields of every study result: never compared.
TIMING_FIELDS = frozenset({"build_s", "collect_s", "filter_s", "study_s"})

#: Warm reruns per cycle: enough for a per-cycle p90 with ten samples
#: beyond it, at about a tenth of a cycle's time.
WARM_RERUNS = 100

#: Cold studies take a second or more, so a run holds 20 to 40: p75 has
#: ten samples beyond it on mega-shm and four or five on the others (p90
#: there is the slowest study but one, which a stray hiccup decides).
COLD_TAIL = 75.0
WARM_TAIL = 90.0

#: Added to the workload seed for the set-up trial, far from every
#: timed trial seed so the set-up never pre-computes a timed trial.
WARMUP_SEED_OFFSET = 1_000_003

#: Expansion depths of the mega variants: three trials per built world.
MEGA_DEPTHS = (4, 8, 16)


def _detection_study() -> Any:
    from repro.experiments import ConfigVariant, DetectionStudy
    from repro.sim.detection_world import DetectionWorldConfig
    from repro.sim.scenarios import mini_specs

    return DetectionStudy(variants=(
        ConfigVariant(name="mini3", world=DetectionWorldConfig(specs=mini_specs())),
    ))


def _economics_study() -> Any:
    from repro.experiments import EconomicsStudy, EconomicsVariant
    from repro.sim.scenarios import offload_preset_config

    return EconomicsStudy(variants=(
        EconomicsVariant(name="paper65", world=offload_preset_config("paper65")),
    ))


def _mega_study() -> Any:
    from repro.experiments import MegaStudy, MegaVariant
    from repro.sim.scenarios import mega_config

    return MegaStudy(variants=tuple(
        MegaVariant(name=f"k{depth}", world=mega_config(), max_ixps=depth)
        for depth in MEGA_DEPTHS
    ))


@dataclass(frozen=True)
class StudyWorkload:
    """One study workload: the study, its engine knobs, its reference path."""

    make: Callable[[], Any]
    seeds: int                    # N: trial seeds per study
    config: dict[str, Any]        # StudyConfig knobs of the timed runs
    reference: dict[str, Any]     # StudyConfig knobs of the reference path
    reference_seeds: int          # sampled seeds re-run through it


STUDY_WORKLOADS = {
    DETECTION: StudyWorkload(
        _detection_study, seeds=16,
        config={"workers": 1, "trial_batch": 16},
        reference={"workers": 1, "trial_batch": 1}, reference_seeds=2,
    ),
    ECONOMICS: StudyWorkload(
        _economics_study, seeds=16,
        config={"workers": 1, "trial_batch": 16},
        reference={"workers": 1, "trial_batch": 1}, reference_seeds=2,
    ),
    MEGA: StudyWorkload(
        _mega_study, seeds=2,
        config={"workers": 2, "transport": "shm"},
        reference={"workers": 1, "transport": "pickle"}, reference_seeds=1,
    ),
}


# -- shared helpers (the serve workload uses them too) ----------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_note(metric: str, values: list[float], q: float) -> str:
    beyond = len(values) - max(1, math.ceil(q / 100.0 * len(values)))
    return f"{metric} = p{q:g} of {len(values)} samples ({beyond} beyond it)"


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest waited-for child's, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def canonical(payload: dict[str, Any], *drop: str) -> Any:
    """A result payload without timing fields, as JSON would carry it."""
    kept = {k: v for k, v in payload.items()
            if k not in TIMING_FIELDS and k not in drop}
    return json.loads(json.dumps(kept, sort_keys=True))


# -- the timed loop ---------------------------------------------------------


@dataclass
class Pass:
    """Every study call of one pass over the workload, in order."""

    cold_s: list[float] = field(default_factory=list)
    warm_s: list[list[float]] = field(default_factory=list)  # per cycle
    cycle_s: list[float] = field(default_factory=list)  # cold + warm + clean-up
    probes: list[float] = field(default_factory=list)  # hostspeed.probe()s
    cold: list[Any] = field(default_factory=list)  # StudyResult per cycle
    #: Warm reruns that did not replay their cycle's cold trials exactly
    #: (compared as they finish, so the pass holds no warm results).
    warm_mismatches: int = 0
    wall_s: float = 0.0

    def reference(self, seconds: list[float]) -> list[float]:
        """Measured seconds in reference seconds (see ``hostspeed``)."""
        speed = hostspeed.speed(self.probes)
        return [s / speed for s in seconds]


def timed_pass(
    study: Any,
    config: Any,
    scratch: Path,
    *,
    seconds: float | None = None,
    cycles: int | None = None,
) -> Pass:
    """Run cycles until ``seconds`` have passed, or exactly ``cycles``."""
    from repro.experiments import run_study

    done = Pass()
    start = time.perf_counter()
    while True:
        gc.collect()
        done.probes.append(hostspeed.probe())
        out_dir = tempfile.mkdtemp(prefix="artifacts-", dir=scratch)
        cycle = replace(config, out_dir=out_dir)
        began = cycle_began = time.perf_counter()
        cold = run_study(study, cycle)
        done.cold_s.append(time.perf_counter() - began)
        done.cold.append(cold)
        warm_s: list[float] = []
        done.warm_s.append(warm_s)
        for _ in range(WARM_RERUNS):
            began = time.perf_counter()
            warm = run_study(study, cycle)
            warm_s.append(time.perf_counter() - began)
            if warm.resumed != len(cold.trials) or warm.trials != cold.trials:
                done.warm_mismatches += 1
        shutil.rmtree(out_dir)
        done.cycle_s.append(time.perf_counter() - cycle_began)
        done.probes.append(hostspeed.probe())
        if cycles is not None:
            if len(done.cold) >= cycles:
                break
        elif time.perf_counter() - start >= seconds:
            break
    done.wall_s = time.perf_counter() - start
    return done


# -- correctness ------------------------------------------------------------


def _digest(study: Any, trials: list[Any]) -> str:
    rows = [canonical(study.encode(t)) for t in trials]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()[:16]


def check(
    workload: StudyWorkload,
    study: Any,
    config: Any,
    passes: list[Pass],
    seed: int,
) -> tuple[list[str], int, str]:
    """Problems found, failed study calls, and the results' digest."""
    from repro.experiments import run_study

    problems: list[str] = []
    failed_calls = 0
    expected = len(config.seeds) * len(study.variant_names())
    digest = ""
    for number, done in enumerate(passes):
        if done.warm_mismatches:
            failed_calls += done.warm_mismatches
            problems.append(f"pass {number}: {done.warm_mismatches} warm "
                            "rerun(s) did not replay the cold trials from "
                            "the artifact")
        for cycle, cold in enumerate(done.cold):
            where = f"pass {number} cycle {cycle}"
            if cold.failures:
                failed_calls += 1
                problems.append(f"{where}: {len(cold.failures)} trial(s) "
                                f"quarantined, first: {cold.failures[0].error}")
            if len(cold.trials) != expected or cold.resumed:
                problems.append(f"{where}: {len(cold.trials)} trials "
                                f"({cold.resumed} resumed), expected "
                                f"{expected} executed")
            if config.transport == "shm" and cold.transport_fallbacks:
                problems.append(f"{where}: {cold.transport_fallbacks} "
                                "trial(s) fell back to pickle transport")
            found = _digest(study, cold.trials)
            if not digest:
                digest = found
            elif found != digest:
                problems.append(f"{where}: results differ from the first cycle")

    first = passes[0].cold[0]
    timed = {(t.variant, t.seed): canonical(study.encode(t), "trial_id")
             for t in first.trials}
    picks = sorted(random.Random(seed).sample(list(config.seeds),
                                              workload.reference_seeds))
    reference = run_study(study, replace(
        config, seeds=tuple(picks), out_dir=None, **workload.reference
    ))
    if reference.failures:
        problems.append(f"reference path quarantined {len(reference.failures)} trial(s)")
    for trial in reference.trials:
        if timed.get((trial.variant, trial.seed)) != canonical(
            study.encode(trial), "trial_id"
        ):
            problems.append(f"seed {trial.seed} variant {trial.variant}: the "
                            "timed path disagrees with the reference path")
    return problems, failed_calls, digest


# -- one run ----------------------------------------------------------------


def setup(name: str, seed: int) -> tuple[StudyWorkload, Any, Any]:
    """Imports plus one warm-up study: a fresh process's set-up cost.

    The warm-up runs the timed configuration on seeds no timed trial
    uses, so catalogs, distance matrices and the heap's high-water mark
    are in place before timing starts (the first batch is otherwise
    measurably slower than every later one).
    """
    from repro.experiments import StudyConfig, run_study

    workload = STUDY_WORKLOADS[name]
    study = workload.make()
    config = StudyConfig(seeds=tuple(range(seed, seed + workload.seeds)),
                         **workload.config)
    warm_up = seed + WARMUP_SEED_OFFSET
    run_study(study, replace(
        config, seeds=tuple(range(warm_up, warm_up + workload.seeds))))
    return workload, study, config


def setup_seconds(t0: float) -> float:
    """Seconds since ``t0``, in reference seconds probed right after."""
    elapsed = time.monotonic() - t0
    return elapsed / hostspeed.speed([hostspeed.probe() for _ in range(4)])


def run(
    name: str, seed: int, seconds: float, trace: bool, scratch: Path, t0: float
) -> dict[str, Any]:
    """Set up, run the timed pass (and the traced one), check, report."""
    workload, study, config = setup(name, seed)
    setup_s = setup_seconds(t0)

    first = timed_pass(study, config, scratch, seconds=seconds)
    passes = [first]
    layers: dict[str, float] | None = None
    if trace:
        tracer = Tracer(scratch / "spans")
        install(tracer)
        try:
            traced = timed_pass(study, config, scratch, cycles=len(first.cold))
        finally:
            tracer.uninstall()
        passes.append(traced)
        spans = load_spans(tracer.spill_dir, tracer.spans)
        values = span_metrics(spans, os.getpid(), traced.wall_s)
        values["trace.overhead_s"] = traced.wall_s - first.wall_s
        quarantined = sum(len(r.failures) for r in traced.cold)
        attempted_trials = sum(len(r.trials) + len(r.failures) for r in traced.cold)
        values["failed_share"] = quarantined / attempted_trials
        layers = per_layer_report(values)

    problems, failed_calls, digest = check(workload, study, config, passes, seed)
    executed = sum(len(r.trials) + len(r.failures) for r in first.cold)
    calls = sum(len(p.cold_s) + sum(map(len, p.warm_s)) for p in passes)
    cold_s = first.reference(first.cold_s)
    warm_p50 = first.reference([median(c) for c in first.warm_s])
    warm_tail = first.reference([percentile(c, WARM_TAIL) for c in first.warm_s])
    end_to_end = {
        "trials_per_s": executed / sum(cold_s),
        "studies_per_s": (len(first.cold_s) + sum(map(len, first.warm_s)))
        / sum(first.reference(first.cycle_s)),
        "cold_latency_p50_s": median(cold_s),
        "cold_latency_tail_s": percentile(cold_s, COLD_TAIL),
        "warm_latency_p50_s": fmean(warm_p50),
        "warm_latency_tail_s": fmean(warm_tail),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    speeds = [p / hostspeed.REFERENCE_S for p in first.probes]
    return {
        "correct": not problems,
        "attempted": calls,
        "failed": failed_calls,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "problems": problems,
        "notes": [
            f"{len(first.cold_s)} cycles of {executed // len(first.cold_s)} "
            f"trials + {WARM_RERUNS} warm reruns in {first.wall_s:.2f} s",
            "timings in reference seconds: measured / host speed "
            f"{fmean(speeds):.3f} (mean of {len(speeds)} probes, "
            f"{min(speeds):.2f} to {max(speeds):.2f}; 1.0 = reference); "
            f"measured cold p50 {median(first.cold_s):.4f} s",
            tail_note("cold_latency_tail_s", cold_s, COLD_TAIL),
            f"warm_latency_p50_s / _tail_s = mean over {len(first.warm_s)} "
            f"cycles of the cycle's p50 / p{WARM_TAIL:g} of {WARM_RERUNS} "
            f"warm calls ({WARM_RERUNS - math.ceil(WARM_TAIL * WARM_RERUNS / 100)}"
            " beyond it)",
            f"results digest {digest}",
        ],
    }
