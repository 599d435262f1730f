"""Rule family 3 — process-pool purity for study workers.

``run_study`` fans trial groups out over a ``ProcessPoolExecutor``:
whatever is submitted is pickled to a worker process.  The contract
(PR 4) is that workers are *module-level pure functions* — lambdas and
nested functions do not pickle, bound methods drag their instance (and
any cached world) across the fork, and module-global writes in a worker
mutate only the worker's copy, silently diverging from the parent.

Rules
-----
``pool-submit-module-fn``
    The first argument of ``pool.submit(...)`` must name a module-level
    function defined in the same module.
``pool-worker-globals``
    A submitted worker must not use ``global``/``nonlocal`` and must not
    store into module-level bindings (including item/attribute stores on
    module-level objects).  The same holds for every same-module
    function a worker calls by name, transitively: a single submitted
    entry point must not hide an impure helper.
``pool-raw-shm``
    ``multiprocessing.shared_memory.SharedMemory`` may be constructed
    only inside :mod:`repro.experiments.transport` — the refcounted
    segment lifecycle (create → per-trial refs → unlink at zero, swept
    by ``close_all`` on every engine exit path) is what guarantees a
    killed study leaks nothing into ``/dev/shm``.  A raw segment
    anywhere else is exactly the one that survives a crash as an
    orphan.
"""

from __future__ import annotations

import ast

from repro.devtools.lint.framework import Checker, FileContext


class PoolPurityChecker(Checker):
    """Pickle-safe, side-effect-free executor submissions."""

    packages = ("repro/experiments/",)
    rules = {
        "pool-submit-module-fn":
            "executor workers must be module-level functions",
        "pool-worker-globals":
            "executor workers must not write module globals",
    }

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._module_defs: dict[str, ast.FunctionDef] = {}
        self._module_bindings: set[str] = set()
        self._checked: set[str] = set()
        self._index_module(ctx.tree)

    def _index_module(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self._module_defs[node.name] = node
                self._module_bindings.add(node.name)
            elif isinstance(node, (ast.ClassDef,)):
                self._module_bindings.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._module_bindings.add(target.id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                self._module_bindings.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self._module_bindings.add(
                        (alias.asname or alias.name).split(".")[0]
                    )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            self._check_submission(node.args[0])
        self.generic_visit(node)

    def _check_submission(self, worker: ast.expr) -> None:
        if isinstance(worker, ast.Lambda):
            self.report(worker, "pool-submit-module-fn",
                        "lambda submitted to the pool; lambdas do not "
                        "pickle and close over local state")
            return
        if not isinstance(worker, ast.Name):
            self.report(worker, "pool-submit-module-fn",
                        "submitted worker must be a plain module-level "
                        "function name (bound methods drag their "
                        "instance across the fork)")
            return
        func = self._module_defs.get(worker.id)
        if func is None:
            self.report(worker, "pool-submit-module-fn",
                        f"{worker.id!r} is not a module-level function "
                        "of this module; workers must be defined at "
                        "module scope where they are submitted")
            return
        self._check_worker_purity(func)

    def _check_worker_purity(self, func: ast.FunctionDef) -> None:
        """Check ``func`` and, transitively, the same-module functions it
        calls by name — each function once per module."""
        if func.name in self._checked:
            return
        self._checked.add(func.name)
        local_names = {a.arg for a in [
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs,
        ]}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._module_defs
            ):
                self._check_worker_purity(self._module_defs[node.func.id])
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                self.report(node, "pool-worker-globals",
                            f"worker {func.name!r} declares "
                            f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}"
                            " state; workers must be pure")
                continue
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    local_names.add(target.id)
            for target in targets:
                root = target
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if (
                    isinstance(root, ast.Name)
                    and root.id in self._module_bindings
                    and root.id not in local_names
                ):
                    self.report(target, "pool-worker-globals",
                                f"worker {func.name!r} stores into "
                                f"module-level {root.id!r}; the write "
                                "only mutates the worker's copy")


#: The one module allowed to construct shared-memory segments.
_TRANSPORT_MODULE = "repro/experiments/transport.py"


class SharedMemoryChecker(Checker):
    """All shared-memory segments go through the refcounted transport."""

    packages = ()  # project-wide: an orphaned segment can come from anywhere
    rules = {
        "pool-raw-shm":
            "SharedMemory segments must be created via "
            "repro.experiments.transport",
    }

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.relpath != _TRANSPORT_MODULE:
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "SharedMemory":
                self.report(
                    node, "pool-raw-shm",
                    "raw SharedMemory construction bypasses the "
                    "refcounted segment lifecycle; use "
                    "repro.experiments.transport (SegmentManager / "
                    "attach_columns) so crashed runs cannot leak "
                    "/dev/shm segments",
                )
        self.generic_visit(node)
