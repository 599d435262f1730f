"""Rule family 2 — draw-stream discipline.

The repro's reproducibility story is the ``(seed, tag, ...)`` child
stream: every stochastic component derives its own stream with
``child_rng``/``derive_seed``, so adding a consumer never perturbs the
draws of existing ones, and the engines of one subsystem create *the
same* streams.

Two rules enforce this:

``draw-nonliteral-tag`` (per file)
    Stream tags must be statically analyzable: the first label is the
    stream family and must be a string literal (or a module-level string
    constant); later labels may be literals, names, or attribute chains,
    but never f-strings, concatenations, or call results — a computed
    tag cannot be compared across engines or audited for collisions.

``draw-engine-parity`` (whole project)
    For every dual-engine subsystem in
    :data:`repro.devtools.lint.drawprograms.SUBSYSTEMS`, the statically
    extracted draw programs of the engines must be identical: same
    methods creating the same streams, in the same scope order.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools.lint.determinism import AUDITED_PACKAGES
from repro.devtools.lint.drawprograms import (
    extract_draw_programs,
    parity_failures,
)
from repro.devtools.lint.framework import Checker, FileContext, Violation

#: Helpers taking ``(seed, *labels)``; ``_stage_rng`` takes labels only.
_TAGGED_HELPERS = {"child_rng", "derive_seed", "child_stream"}
_LABEL_ONLY_HELPERS = {"_stage_rng"}

#: Rules reported by the whole-project pass (run by the CLI, not per file).
PROJECT_RULES = {
    "draw-engine-parity":
        "the engines of one subsystem must create identical draw streams",
}


class DrawTagChecker(Checker):
    """``draw-nonliteral-tag``: stream tags must be statically readable."""

    packages = AUDITED_PACKAGES + ("repro/experiments/",)
    rules = {
        "draw-nonliteral-tag":
            "stream tags must be built from literals/names, first label "
            "a string literal",
    }

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._constants = ctx.module_str_constants()

    def visit_Call(self, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in _TAGGED_HELPERS:
            self._check_labels(node, node.args[1:], helper=name)
        elif name in _LABEL_ONLY_HELPERS:
            self._check_labels(node, node.args, helper=name)
        self.generic_visit(node)

    def _is_literal_str(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return True
        return isinstance(node, ast.Name) and node.id in self._constants

    @staticmethod
    def _is_simple(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (str, int))
        if isinstance(node, ast.Name):
            return True
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name)

    def _check_labels(
        self, node: ast.Call, labels: list[ast.expr], helper: str
    ) -> None:
        if not labels:
            self.report(node, "draw-nonliteral-tag",
                        f"{helper}() without a stream tag; every stream "
                        "needs a literal family label")
            return
        if not self._is_literal_str(labels[0]):
            self.report(node, "draw-nonliteral-tag",
                        f"first {helper} label (the stream family) must "
                        "be a string literal or module constant")
        for label in labels[1:]:
            if not self._is_simple(label):
                self.report(label, "draw-nonliteral-tag",
                            f"{helper} label built from a computed "
                            "expression; use literals, names, or "
                            "attribute chains")


def draw_parity_violations(src_root: Path) -> list[Violation]:
    """The whole-project ``draw-engine-parity`` check."""
    programs = extract_draw_programs(src_root)
    violations: list[Violation] = []
    for subsystem, module, engine_a, engine_b in parity_failures(programs):
        violations.append(Violation(
            rule="draw-engine-parity",
            path=module,
            line=1,
            col=1,
            message=(
                f"{subsystem}: the {engine_a} and {engine_b} engines "
                "create different draw streams (run `repro lint "
                "--draw-programs` for the per-engine table)"
            ),
        ))
    return violations
