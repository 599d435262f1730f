"""``repro lint``: AST static analysis for the repro's core contracts.

Four rule families (see README.md in this directory for the full
determinism contract):

1. **determinism** — the simulation packages may not touch global RNG
   state, wall clocks, OS entropy, or hash-order iteration;
2. **draw-stream discipline** — ``(seed, tag, ...)`` child-stream tags
   are literal, and the engines of one subsystem create identical
   streams;
3. **process-pool purity** — study workers are module-level pure
   functions;
4. **report stability** — renderers format floats with explicit
   precision and never iterate unordered containers into output.
"""

from repro.devtools.lint.cli import lint_main
from repro.devtools.lint.drawprograms import (
    DrawProgram,
    DrawSite,
    extract_draw_programs,
    parity_failures,
    render_draw_programs,
)
from repro.devtools.lint.drawstream import draw_parity_violations
from repro.devtools.lint.framework import (
    Checker,
    LintReport,
    Violation,
    all_checkers,
    lint_files,
    lint_source,
    render_json,
    render_text,
    rule_catalog,
)

__all__ = [
    "Checker",
    "DrawProgram",
    "DrawSite",
    "LintReport",
    "Violation",
    "all_checkers",
    "draw_parity_violations",
    "extract_draw_programs",
    "lint_files",
    "lint_main",
    "lint_source",
    "parity_failures",
    "render_draw_programs",
    "render_json",
    "render_text",
    "rule_catalog",
]
