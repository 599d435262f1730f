"""Perf regression guard: rerun the BENCH stages, compare to the baseline.

Reruns every timed stage of :mod:`benchmarks.bench_speed` and fails (exit
code 1) when any stage shared with the committed ``BENCH_speed.json`` is
slower than ``--factor`` times its baseline (default 2x — wide enough for
machine noise, tight enough to catch a vectorized path silently falling
back to a scalar loop).  Stages present on only one side are reported but
never fail the check, so adding or retiring stages does not break CI.

Since schema v8 the payload also carries per-stage peak-RSS marks
(``memory_mb``); stages listed in ``MEMORY_BUDGETS_MB`` must stay under
their absolute ceiling — an *absolute* gate, unlike the relative timing
ratios, because a memory blow-through signals a design regression
(per-network objects materializing on a columnar path), not a slow
machine.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --quick  # smoke gate
    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline BENCH_speed.json --factor 2.0

``--quick`` reruns only the fast stages (no scalar probe engine, no
paper-scale offload ensemble); missing stages are reported as retired
but never fail, so the quick gate still covers every vectorized hot
path.  So are stages the benchmark no longer runs at all (the scalar
world-builder stages moved out with their engines, into
``tests/reference/``).  ``make smoke`` chains it after ``pytest -m "not slow"``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The newest ``bench_speed/vN`` generation this checker understands.
#: Bump together with the ``schema`` tag in benchmarks/bench_speed.py —
#: a baseline from a *newer* generation may have renamed or re-scoped
#: stages, and silently comparing mismatched stage names would turn the
#: guard into a no-op.
KNOWN_SCHEMA_GENERATION = 8

#: Absolute peak-RSS ceilings (MB) per stage, checked against the fresh
#: payload's ``memory_mb`` marks (schema v8+).  ``ru_maxrss`` is the
#: *process* high-water mark — cumulative, never resetting — so budgets
#: are ordering-aware: bench_speed runs the mega stages first, which
#: makes their marks a faithful ceiling on the mega build itself, while
#: later stages inherit everything before them and get correspondingly
#: wider budgets.  Unlike timing ratios these are absolute: a budget
#: blow-through means the columnar/zero-copy design regressed into
#: materializing per-network state, which machine speed cannot excuse.
#: Stages without an entry are unbudgeted; budgeted stages missing from
#: a payload (``--quick``, old baselines) are skipped, never failed.
MEMORY_BUDGETS_MB = {
    # The tentpole budget: a 100k-network world in < 1.5 GB (measured
    # ~60 MB — two orders of magnitude of headroom before the object
    # regression this guards against).
    "mega_world_build_100k": 1536.0,
    # One extra world copy crosses create(); still far under the build.
    "study_transport_shm_vs_pickle": 1792.0,
    # Paper-scale single worlds, early in the run.
    "detection_world_build": 2048.0,
    "offload_world_build": 3072.0,
    # End of the full sequence: every ensemble's cumulative high water.
    "failover_scenario_small": 6144.0,
}

_SCHEMA_RE = re.compile(r"bench_speed/v(\d+)\Z")


def schema_generation(schema: object) -> int | None:
    """The N of a ``bench_speed/vN`` tag, or None for unversioned tags.

    Unversioned tags (e.g. the ``bench_speed/test`` payloads the test
    suite writes) carry no generation to compare, so they never trip the
    newer-than-known gate.
    """
    match = _SCHEMA_RE.match(str(schema or ""))
    return int(match.group(1)) if match else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_regression",
        description="Fail when any timed stage regresses vs BENCH_speed.json.",
    )
    parser.add_argument(
        "--baseline", default=str(REPO_ROOT / "BENCH_speed.json"),
        help="baseline BENCH file (default: the committed one)",
    )
    parser.add_argument(
        "--factor", type=float, default=2.0,
        help="failure threshold: fresh > factor * baseline (default: 2.0)",
    )
    parser.add_argument(
        "--fresh", default=None,
        help="compare a previously captured payload instead of rerunning "
        "the benchmark (path to a BENCH-schema JSON file)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="rerun only the fast stages (skip the scalar probe engine and "
        "the paper-scale offload ensemble) — what `make smoke` gates on",
    )
    args = parser.parse_args(argv)
    if args.factor <= 1.0:
        parser.error("--factor must be greater than 1")

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"baseline {baseline_path} missing; nothing to compare")
        return 1
    baseline = json.loads(baseline_path.read_text())
    baseline_generation = schema_generation(baseline.get("schema"))
    if baseline_generation is not None \
            and baseline_generation > KNOWN_SCHEMA_GENERATION:
        # A newer baseline schema is a hard error, not a warning: its
        # stage names may have been renamed or re-scoped, and comparing
        # them loosely would silently gut the regression guard.
        print(
            f"ERROR: baseline schema {baseline.get('schema')!r} is newer "
            f"than this checker understands "
            f"(bench_speed/v{KNOWN_SCHEMA_GENERATION}); update "
            "KNOWN_SCHEMA_GENERATION in benchmarks/check_regression.py "
            "alongside the bench_speed schema bump"
        )
        return 1
    if args.fresh is not None:
        fresh = json.loads(Path(args.fresh).read_text())
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from bench_speed import collect_payload

        fresh = collect_payload(quick=args.quick)

    base_timings: dict[str, float] = baseline.get("timings_s", {})
    fresh_timings: dict[str, float] = fresh.get("timings_s", {})
    shared = sorted(base_timings.keys() & fresh_timings.keys())
    regressions: list[str] = []
    width = max((len(name) for name in fresh_timings), default=10)
    print(f"{'stage':{width}}  {'baseline':>9}  {'fresh':>9}  ratio")
    for name in shared:
        base = base_timings[name]
        now = fresh_timings[name]
        if base <= 0:
            # A stage fast enough to round to zero in the baseline cannot
            # be compared by ratio; report it but never fail on it.
            print(f"{name:{width}}  {base:9.4f}  {now:9.4f}  (zero baseline)")
            continue
        regressed = now > args.factor * base
        flag = "  <-- REGRESSION" if regressed else ""
        print(f"{name:{width}}  {base:9.4f}  {now:9.4f}  {now / base:5.2f}x{flag}")
        if regressed:
            regressions.append(name)
    for name in sorted(fresh_timings.keys() - base_timings.keys()):
        print(f"{name:{width}}  {'-':>9}  {fresh_timings[name]:9.4f}  (new)")
    missing = sorted(base_timings.keys() - fresh_timings.keys())
    for name in missing:
        print(f"{name:{width}}  {base_timings[name]:9.4f}  {'-':>9}  (retired)")
    if missing:
        # Baseline-only stages must warn, not KeyError or fail: --quick
        # runs skip the slow stages by design, and a retired stage should
        # not block the PR that retires it.
        print(
            f"WARNING: {len(missing)} baseline stage(s) missing from this "
            f"run (not compared): {', '.join(missing)}"
        )
    if not shared:
        print(
            "WARNING: no stages in common with the baseline — schema "
            "drift? nothing was actually compared"
        )

    fresh_memory: dict[str, float] = fresh.get("memory_mb", {})
    memory_failures: list[str] = []
    budgeted = sorted(MEMORY_BUDGETS_MB.keys() & fresh_memory.keys())
    if budgeted:
        print(f"\n{'stage':{width}}  {'peak RSS':>9}  {'budget':>9}")
        for name in budgeted:
            used = fresh_memory[name]
            budget = MEMORY_BUDGETS_MB[name]
            over = used > budget
            flag = "  <-- OVER BUDGET" if over else ""
            print(f"{name:{width}}  {used:7.1f}MB  {budget:7.1f}MB{flag}")
            if over:
                memory_failures.append(name)

    if regressions or memory_failures:
        if regressions:
            print(
                f"\nFAIL: {len(regressions)} stage(s) regressed more than "
                f"{args.factor}x: {', '.join(regressions)}"
            )
        if memory_failures:
            print(
                f"\nFAIL: {len(memory_failures)} stage(s) exceeded their "
                f"peak-RSS budget: {', '.join(memory_failures)}"
            )
        return 1
    print(f"\nOK: no stage regressed more than {args.factor}x "
          f"({len(shared)} compared, {len(budgeted)} memory budget(s) held)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
