"""``repro lint`` — run the determinism & draw-stream static analysis.

Exit status is 1 when any violation survives suppressions, so
``make lint`` and CI can gate on it.  ``--draw-programs`` prints the
statically extracted per-engine stream-order table instead of linting
(and still fails when engines diverge, so the table is never stale
documentation of a broken invariant).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.devtools.lint.drawprograms import (
    extract_draw_programs,
    parity_failures,
    render_draw_programs,
)
from repro.devtools.lint.drawstream import draw_parity_violations
from repro.devtools.lint.framework import (
    LintReport,
    lint_files,
    render_json,
    render_text,
    rule_catalog,
)


def _src_root() -> Path:
    """The ``src/`` directory holding the live ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def lint_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST static analysis for the repro's determinism, "
        "draw-stream, pool-purity and report-stability contracts.",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: the live repro tree)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="violation output format (default: text)",
    )
    parser.add_argument(
        "--draw-programs", action="store_true",
        help="print the per-engine RNG stream-order table and exit "
        "(nonzero when engines diverge)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id with its summary and exit",
    )
    args = parser.parse_args(argv)

    src_root = _src_root()

    if args.list_rules:
        for rule, summary in rule_catalog().items():
            print(f"{rule:24} {summary}")
        return 0

    if args.draw_programs:
        programs = extract_draw_programs(src_root)
        print(render_draw_programs(programs))
        return 1 if parity_failures(programs) else 0

    paths = [Path(p) for p in args.paths] if args.paths \
        else [src_root / "repro"]
    report = lint_files(paths, display_root=src_root)
    # The parity check is whole-project: it reads the engine modules from
    # the live tree regardless of which paths were linted.
    report = LintReport(
        violations=sorted(
            report.violations + draw_parity_violations(src_root),
            key=lambda v: (v.path, v.line, v.col, v.rule),
        ),
        files_checked=report.files_checked,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 1 if report.violations else 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    import sys

    sys.exit(lint_main())
