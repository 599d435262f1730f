"""Start ``repro serve --port 0`` with the layer wrappers installed.

The traced serve-mixed pass runs the server through this launcher::

    python3 perfbench/serve_launcher.py --spill DIR --store DIR --threads 2

It installs the wrappers before the service is built, serves until
SIGINT, then writes the recorded spans to ``DIR/spans-<pid>.jsonl``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from layers import install
from spans import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spill", required=True, type=Path)
    parser.add_argument("--store", required=True)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args(argv)

    tracer = Tracer(args.spill)
    install(tracer)
    from repro.serve.app import serve

    try:
        return serve(port=0, store_dir=args.store, threads=args.threads)
    finally:
        tracer.spill()


if __name__ == "__main__":
    raise SystemExit(main())
