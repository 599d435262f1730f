"""One measuring process: set up, run one workload, check its outputs.

``run.py`` starts this as a fresh process for every run (so its peak RSS
stands on its own) and reads the JSON it writes to ``--out``.
``--t0`` is the parent's ``time.monotonic()`` just before the start, so
set-up time counts from process start.  With ``--setup-only`` a study
workload only sets up and reports how long that took.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from layers import SERVE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == SERVE:
        import serveload

        result = serveload.run(ROOT, args.scratch, args.seed, args.seconds,
                               bool(args.trace))
    else:
        import workloads

        if args.setup_only:
            workloads.setup(args.workload, args.seed)
            result = {"setup_s": workloads.setup_seconds(args.t0)}
        else:
            result = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.scratch, args.t0)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
