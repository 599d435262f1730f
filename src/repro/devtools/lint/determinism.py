"""Rule family 1 — determinism in the simulation packages.

Everything under ``sim/``, ``lg/``, ``faults/``, ``bgp/``, ``netflow/``,
``delaymodel/`` and ``core/`` must be a pure function of explicit seeds:
the cross-engine equivalence suites compare draws bit-for-bit, so a
single ``random.random()``, wall-clock read, or set-ordering iteration
silently breaks reproducibility in a way no unit test pins down.

Rules
-----
``det-random``
    The stdlib ``random`` module is banned outright (process-global,
    unseeded state).  Use ``repro.rand.make_rng`` / ``child_rng``.
``det-np-random``
    ``np.random.*`` calls other than ``default_rng(seed)`` hit numpy's
    legacy global state.  ``default_rng()`` with no argument seeds from
    OS entropy and is equally banned.
``det-wallclock``
    ``time.time()``, ``time.perf_counter()``, ``datetime.now()`` and
    friends make draws (or results) depend on when the study ran,
    whether called through the module or as a bare name imported with
    ``from time import ...``.  Simulated time comes from the campaign
    window; trial timings are the scheduler's.
``det-entropy``
    ``os.urandom`` / ``uuid.uuid4`` / ``secrets`` are entropy sources by
    design — never reproducible.
``det-popitem``
    ``dict.popitem()`` (and set ``pop``) removes an *arbitrary* element;
    arbitrary order feeding draws or output is exactly the bug class the
    engines guard against.
``det-set-iter``
    Iterating a bare ``set``/``frozenset`` yields hash order, which
    varies across processes (string hash randomization).  Wrap the
    iteration in ``sorted(...)`` or iterate an ordered container.
"""

from __future__ import annotations

import ast

from repro.devtools.lint.framework import Checker, FileContext

#: The model packages held to the determinism contract.
AUDITED_PACKAGES = (
    "repro/sim/",
    "repro/lg/",
    "repro/faults/",
    "repro/bgp/",
    "repro/netflow/",
    "repro/delaymodel/",
    "repro/core/",
)

_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

_ENTROPY_MODULES = {"secrets"}


def dotted_name(node: ast.expr) -> tuple[str, ...]:
    """``np.random.default_rng`` -> ("np", "random", "default_rng")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        # rng.random(), self._stage_rng(...).random(...): the chain roots
        # in an expression, not a module — not a dotted module reference.
        return ()
    parts.append(node.id)
    parts.reverse()
    return tuple(parts)


class DeterminismChecker(Checker):
    """Forbidden nondeterminism sources in the simulation packages."""

    packages = AUDITED_PACKAGES
    rules = {
        "det-random": "stdlib random module (global unseeded state)",
        "det-np-random": "np.random legacy global state / unseeded default_rng",
        "det-wallclock": "clock reads (time.time, perf_counter, datetime.now, ...)",
        "det-entropy": "OS entropy (os.urandom, uuid4, secrets)",
        "det-popitem": "dict.popitem removes an arbitrary element",
    }

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        # ``from time import perf_counter as pc`` anywhere in the file
        # makes a bare ``pc()`` a clock read.
        self._clocks: dict[str, tuple[str, str]] = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names
            if (node.module, alias.name) in _WALLCLOCK_CALLS
        }

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random":
                self.report(node, "det-random",
                            "import of the stdlib random module; use "
                            "repro.rand.make_rng/child_rng instead")
            elif root in _ENTROPY_MODULES:
                self.report(node, "det-entropy",
                            f"import of entropy module {alias.name!r}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root == "random":
            self.report(node, "det-random",
                        "import from the stdlib random module; use "
                        "repro.rand.make_rng/child_rng instead")
        elif root in _ENTROPY_MODULES:
            self.report(node, "det-entropy",
                        f"import from entropy module {node.module!r}")
        elif root == "os" and any(a.name == "urandom" for a in node.names):
            self.report(node, "det-entropy", "import of os.urandom")
        elif root == "uuid" and any(a.name == "uuid4" for a in node.names):
            self.report(node, "det-entropy", "import of uuid.uuid4")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if len(dotted) == 1 and dotted[0] in self._clocks:
            dotted = self._clocks[dotted[0]]
        if dotted:
            self._check_dotted_call(node, dotted)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"
        ):
            self.report(node, "det-popitem",
                        ".popitem() removes an arbitrary element; pop a "
                        "sorted key instead")
        self.generic_visit(node)

    def _check_dotted_call(
        self, node: ast.Call, dotted: tuple[str, ...]
    ) -> None:
        if dotted[0] == "random":
            self.report(node, "det-random",
                        f"call to {'.'.join(dotted)} (global unseeded "
                        "stream); use repro.rand streams")
            return
        if len(dotted) >= 3 and dotted[0] in ("np", "numpy") \
                and dotted[1] == "random":
            terminal = dotted[2]
            if terminal == "default_rng":
                if not node.args:
                    self.report(node, "det-np-random",
                                "default_rng() with no seed draws from OS "
                                "entropy; pass an explicit seed")
            elif terminal not in ("Generator", "PCG64", "SeedSequence"):
                self.report(node, "det-np-random",
                            f"call to {'.'.join(dotted)} uses numpy's "
                            "legacy global state; use make_rng/child_rng")
            return
        if len(dotted) >= 2 and dotted[-2:] in _WALLCLOCK_CALLS:
            self.report(node, "det-wallclock",
                        f"wall-clock call {'.'.join(dotted)}(); simulated "
                        "time must come from the campaign window")
            return
        if dotted[-2:] == ("os", "urandom") or dotted[-1:] == ("urandom",):
            self.report(node, "det-entropy", "os.urandom is OS entropy")
        elif dotted[-2:] == ("uuid", "uuid4") or dotted == ("uuid4",):
            self.report(node, "det-entropy", "uuid4 is OS entropy")
        elif dotted[0] == "secrets":
            self.report(node, "det-entropy",
                        f"call to {'.'.join(dotted)} is OS entropy")


_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}


class _SetTracker:
    """Flow-insensitive "is this expression a set?" inference for one scope."""

    def __init__(self, constants_scope: ast.AST) -> None:
        self.known: set[str] = set()
        self._collect(constants_scope)

    def _collect(self, scope: ast.AST) -> None:
        # Two passes: parameter annotations, then every assignment in the
        # scope body (skipping nested function scopes, which are tracked
        # separately when visited).
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None \
                        and self._is_set_annotation(arg.annotation):
                    self.known.add(arg.arg)
        changed = True
        while changed:  # fixpoint: a = set(); b = a | other
            changed = False
            for node in self._scope_statements(scope):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    if self._is_set_annotation(node.annotation) \
                            and isinstance(target, ast.Name) \
                            and target.id not in self.known:
                        self.known.add(target.id)
                        changed = True
                if (
                    isinstance(target, ast.Name)
                    and value is not None
                    and self.is_set(value)
                    and target.id not in self.known
                ):
                    self.known.add(target.id)
                    changed = True

    @staticmethod
    def _scope_statements(scope: ast.AST) -> list[ast.stmt]:
        statements: list[ast.stmt] = []
        stack = list(getattr(scope, "body", []))
        while stack:
            node = stack.pop()
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes tracked on their own
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    stack.append(child)
        return statements

    @staticmethod
    def _is_set_annotation(annotation: ast.expr) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        name = ()
        if isinstance(annotation, ast.Name):
            name = (annotation.id,)
        elif isinstance(annotation, ast.Attribute):
            name = (annotation.attr,)
        return bool(name) and name[0] in _SET_ANNOTATIONS

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.known
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in _SET_METHODS:
                return self.is_set(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set(node.left) or self.is_set(node.right)
        return False


class SetIterationChecker(Checker):
    """``det-set-iter``: hash-order iteration in the simulation packages."""

    packages = AUDITED_PACKAGES
    rules = {
        "det-set-iter": "iteration over a bare set yields hash order",
    }
    rule_id = "det-set-iter"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._trackers: list[_SetTracker] = [_SetTracker(ctx.tree)]

    def _flag(self, node: ast.AST) -> None:
        self.report(node, self.rule_id,
                    "iteration over a bare set follows hash order; wrap "
                    "in sorted(...) or use an ordered container")

    def _is_set(self, node: ast.expr) -> bool:
        return any(tracker.is_set(node) for tracker in self._trackers)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._trackers.append(_SetTracker(node))
        self.generic_visit(node)
        self._trackers.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_For(self, node: ast.For) -> None:
        if self._is_set(node.iter):
            self._flag(node.iter)
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.expr) -> None:
        for generator in getattr(node, "generators", []):
            if self._is_set(generator.iter):
                self._flag(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        # list(S)/tuple(S)/enumerate(S)/iter(S) materialize hash order;
        # sorted(S)/len(S)/min(S)/max(S)/sum over ints are order-free.
        if isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple", "enumerate", "iter") \
                and node.args and self._is_set(node.args[0]):
            self._flag(node)
        self.generic_visit(node)
