"""Run the benchmark: one workload, or all four, and print every metric.

    python3 perfbench/run.py --workload detection-batch --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py                  # every workload in turn

Prints one line per metric (name, value, unit), notes and any wrong
output found, then as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (a
traced pass over the same work, after an untraced one).  Without
``--workload`` the last line merges all four, metric names prefixed with
``<workload>/``.  Exits 0 only when every output checked out correct.

The program measured is ``src/repro`` of the checkout this file sits in;
the benchmark itself needs only the standard library.  Scratch files go
to ``.perfbench_tmp/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from layers import END_TO_END, PER_LAYER, STUDIES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Wall-clock budget of one workload run, kept under the 180 s limit.
BUDGET_S = 170.0
#: Fresh-process set-ups per untraced study run; ``setup_s`` is their median.
SETUP_RUNS = 3
DEFAULT_SECONDS = 30
#: Wrong-output findings printed per run (all of them fail it).
SHOWN_PROBLEMS = 20


class BenchError(RuntimeError):
    """A measuring process failed or ran out of time."""


def _measure(workload: str, seed: int, seconds: int, trace: int,
             scratch: Path, deadline: float, setup_only: bool = False) -> Any:
    """Run ``measure.py`` as a fresh process group; return its result."""
    out = scratch / f"result-{time.monotonic_ns()}.json"
    source = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH")))))
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--scratch", str(scratch), "--out", str(out),
        *(["--setup-only"] if setup_only else []),
        "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code: int | None = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Whatever the measuring process left behind (pool workers, a
        # server) goes with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise BenchError(f"{workload}: the measuring process ran out of time")
    if code != 0:
        raise BenchError(f"{workload}: the measuring process exited with {code}")
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> Any:
    deadline = time.monotonic() + BUDGET_S
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    try:
        setups = []
        if workload in STUDIES and not trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_measure(workload, seed, seconds, trace, scratch,
                                       deadline, setup_only=True)["setup_s"])
        result = _measure(workload, seed, seconds, trace, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    if setups:
        own = result["end_to_end"]["setup_s"]
        result["end_to_end"]["setup_s"] = statistics.median(setups + [own])
        result["notes"].append("set-ups: " + ", ".join(
            f"{s:.3f}" for s in setups + [own]) + " s")
    return result


def report(workload: str, args: argparse.Namespace, result: Any) -> dict[str, Any]:
    """Print one run's metrics; return its result line."""
    catalog = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer" if args.trace else "end_to_end"]
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for metric in catalog:
        print(f"  {metric.name:<40} {values[metric.name]:>14.6g}  {metric.unit}")
    for note in result["notes"]:
        print(f"  note: {note}")
    problems = result["problems"]
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"  WRONG: {problem}")
    if len(problems) > SHOWN_PROBLEMS:
        print(f"  WRONG: ... {len(problems) - SHOWN_PROBLEMS} more")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in catalog},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    lines = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        lines[workload] = report(workload, args, result)

    if args.workload:
        line = lines[args.workload]
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}/{name}": value for w, l in lines.items()
                        for name, value in l["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
