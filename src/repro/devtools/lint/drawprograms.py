"""Static extraction of the per-engine RNG draw programs.

Every stochastic subsystem creates its child streams through a handful
of helpers — ``child_rng``/``derive_seed`` (tagged streams) and
``make_rng`` (the root stream) — so the complete stream topology of an
engine is statically visible: it is the ordered list of helper calls
reachable from the engine's entry scope, with method overrides resolved
along the configured MRO.

That extraction serves two purposes:

* ``repro lint`` compares the programs of every multi-engine subsystem
  and fails when they diverge (rule ``draw-engine-parity``) — the
  invariant the cross-engine equivalence suites check dynamically,
  enforced before a single test runs.  Every subsystem in ``src/`` has
  one engine today;
* ``repro lint --draw-programs`` renders the table, replacing the
  hand-maintained stream-order docstrings (``tests/golden/
  draw_programs.txt`` pins it, line numbers stripped).

The scalar references of the pool, detection and offload worlds and of
the probe campaign live outside ``src/`` (``tests/reference/``), each
with its own copy of its draw stages; ``tests/test_repro_lint.py``
extracts their programs with the same machinery and holds each to its
product's program.

Sites are listed in *scope order* (shared scopes first, then the engine
class walked base-most first, each scope in source order).  Within one
stream, engines may legitimately draw in different orders — the
contract is that the *set and shape of streams* match, which scope-order
sequences capture exactly because overriding a method keeps its name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: Helpers that create a *tagged* child stream: ``helper(seed, *labels)``.
TAG_HELPERS = ("child_rng", "derive_seed", "child_stream")

#: Repo-specific stream helpers wrapping ``child_rng`` with a fixed tag
#: prefix: ``self._stage_rng(stage)`` == ``child_rng(seed, "offload", stage)``.
STREAM_HELPER_PREFIXES: dict[str, tuple[str, ...]] = {
    "_stage_rng": ("offload",),
}


@dataclass(frozen=True)
class DrawSite:
    """One stream-creation call: where it lives and the tag it derives."""

    scope: str                 # defining scope, e.g. "_OffloadBuilder._build_giants"
    method: str                # bare method/function name (the parity key)
    lineno: int
    helper: str                # child_rng / derive_seed / make_rng / _stage_rng
    tag: tuple[str, ...]       # normalized labels; non-literals as <expr>

    def render_tag(self) -> str:
        return "(" + ", ".join(self.tag) + ")"

    def parity_key(self) -> tuple[str, str, tuple[str, ...]]:
        return (self.method, self.helper, self.tag)


@dataclass(frozen=True)
class DrawProgram:
    """The full draw program of one engine of one subsystem."""

    subsystem: str
    engine: str
    module: str
    sites: tuple[DrawSite, ...]

    def parity_sequence(self) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
        return tuple(site.parity_key() for site in self.sites)


@dataclass(frozen=True)
class _Scope:
    """An extraction entry: a module function, a method, or a class MRO."""

    kind: str                        # "function" | "method" | "class"
    name: str                        # function name / class name
    method: str | None = None        # for kind == "method"
    mro: tuple[str, ...] = ()        # for kind == "class", derived-first
    #: Parity-key override for engine entry methods whose *names* differ
    #: across engines (e.g. the reference campaign's _sweep_server_scalar
    #: vs the product's _sweep_server_batch)
    #: while their stream contracts must match.
    alias: str | None = None


@dataclass(frozen=True)
class SubsystemSpec:
    """Where one subsystem's engines live and which scopes to extract."""

    name: str
    module: str                      # package-relative path under src/
    shared: tuple[_Scope, ...]       # scopes contributing to every engine
    engines: dict[str, tuple[_Scope, ...]]


#: The stochastic subsystems: each builder and the fault scheduler, with
#: one engine each (extracted for the inventory, and as the programs the
#: ``tests/reference/`` builders are held to).  A second engine
#: registered for a subsystem is held to the first by
#: ``draw-engine-parity``.
SUBSYSTEMS: tuple[SubsystemSpec, ...] = (
    SubsystemSpec(
        name="detection-world",
        module="repro/sim/detection_world.py",
        shared=(_Scope("function", "_make_providers"),),
        engines={
            "shared": (_Scope("class", "_WorldBuilder",
                              mro=("_WorldBuilder",)),),
        },
    ),
    SubsystemSpec(
        name="offload-world",
        module="repro/sim/offload_world.py",
        shared=(
            _Scope("class", "_Tier2Draws", mro=("_Tier2Draws",)),
            _Scope("class", "_StubDraws", mro=("_StubDraws",)),
        ),
        engines={
            # One builder realizes one seed or a seed batch, running every
            # per-seed stream through the same sites once per seed.
            "batched": (_Scope("class", "_OffloadBuilder",
                               mro=("_OffloadBuilder",)),),
        },
    ),
    SubsystemSpec(
        name="netpool",
        module="repro/sim/netpool.py",
        shared=(),
        engines={
            "shared": (_Scope("function", "_draw_pool_columns",
                              alias="generate"),),
        },
    ),
    SubsystemSpec(
        name="campaign",
        module="repro/core/detection/campaign.py",
        shared=(_Scope("method", "ProbeCampaign", method="_retry_plan"),),
        engines={
            "vectorized": (_Scope("method", "ProbeCampaign",
                                  method="_sweep_server_batch",
                                  alias="sweep_server"),),
        },
    ),
    SubsystemSpec(
        name="faults",
        module="repro/faults/schedule.py",
        shared=(),
        engines={
            "shared": (_Scope("function", "build_fault_schedule"),),
        },
    ),
    SubsystemSpec(
        # Single-engine, extracted for the stream inventory: the mega
        # world draws its pool through the columnar netpool engine
        # (seed derived via ``(seed, "megatopo", "pool")``) and its
        # hierarchy + memberships from dedicated ``(seed, "megatopo",
        # "t1"/"t2"/"stubs"/"membership", ...)`` child streams.
        name="megatopo",
        module="repro/sim/megatopo.py",
        shared=(),
        engines={
            "shared": (_Scope("function", "_pool_config"),
                       _Scope("function", "_build")),
        },
    ),
)


class _ModuleIndex:
    """Functions, classes and string constants of one parsed module."""

    def __init__(self, tree: ast.Module) -> None:
        self.functions: dict[str, ast.FunctionDef] = {}
        self.classes: dict[str, dict[str, ast.FunctionDef]] = {}
        self.constants: dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods: dict[str, ast.FunctionDef] = {}
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item.name] = item
                self.classes[node.name] = methods
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.constants[node.targets[0].id] = node.value.value


def _normalize_label(node: ast.expr, constants: dict[str, str]) -> str:
    """Render one tag label: literals verbatim, expressions as ``<...>``."""
    if isinstance(node, ast.Constant):
        return repr(node.value) if isinstance(node.value, str) \
            else str(node.value)
    if isinstance(node, ast.Name):
        if node.id in constants:
            return repr(constants[node.id])
        return f"<{node.id}>"
    if isinstance(node, ast.Attribute):
        parts = []
        value: ast.expr = node
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
        parts.reverse()
        return "<" + ".".join(parts) + ">"
    return "<expr>"


def _terminal_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _looks_like_seed(label: str) -> bool:
    inner = label.strip("<>").split(".")[-1]
    return inner == "seed" or inner.endswith("_seed")


def tags_in_function(
    func: ast.FunctionDef,
    constants: dict[str, str],
    scope: str,
    parity_name: str | None = None,
) -> list[DrawSite]:
    """Every stream-creation call in one function body, in source order.

    ``make_rng`` only counts when its argument names a seed (``seed``,
    ``config.seed``, ``*_seed``): the same helper is also the pass-through
    that accepts an existing Generator, which creates no stream.
    """
    if func.name in STREAM_HELPER_PREFIXES:
        return []  # the helper's own child_rng call defines the prefix
    method = parity_name or func.name
    sites: list[DrawSite] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        terminal = _terminal_name(node.func)
        if terminal in TAG_HELPERS and len(node.args) >= 2:
            tag = tuple(
                _normalize_label(arg, constants) for arg in node.args[1:]
            )
            sites.append(DrawSite(scope, method, node.lineno,
                                  terminal, tag))
        elif terminal in STREAM_HELPER_PREFIXES and node.args:
            prefix = tuple(
                repr(part) for part in STREAM_HELPER_PREFIXES[terminal]
            )
            tag = prefix + tuple(
                _normalize_label(arg, constants) for arg in node.args
            )
            sites.append(DrawSite(scope, method, node.lineno,
                                  terminal, tag))
        elif terminal == "make_rng" and len(node.args) == 1:
            label = _normalize_label(node.args[0], constants)
            if _looks_like_seed(label):
                sites.append(DrawSite(scope, method, node.lineno,
                                      "make_rng", (label,)))
    sites.sort(key=lambda s: s.lineno)
    return sites


def _scope_sites(index: _ModuleIndex, scope: _Scope) -> list[DrawSite]:
    if scope.kind == "function":
        func = index.functions.get(scope.name)
        if func is None:
            raise LookupError(f"module function {scope.name!r} not found")
        return tags_in_function(func, index.constants, scope.name,
                                parity_name=scope.alias)
    if scope.kind == "method":
        methods = index.classes.get(scope.name)
        if methods is None or scope.method not in methods:
            raise LookupError(
                f"method {scope.name}.{scope.method} not found"
            )
        return tags_in_function(
            methods[scope.method], index.constants,
            f"{scope.name}.{scope.method}",
            parity_name=scope.alias,
        )
    # kind == "class": resolve effective methods over the configured MRO,
    # base-most first so engines list shared methods in the same
    # (base-defined) order; an override replaces the base implementation
    # in place.
    order: list[str] = []
    impl: dict[str, tuple[str, ast.FunctionDef]] = {}
    for cls_name in reversed(scope.mro):
        methods = index.classes.get(cls_name)
        if methods is None:
            raise LookupError(f"class {cls_name!r} not found")
        for method_name, func in methods.items():
            if method_name not in impl:
                order.append(method_name)
            impl[method_name] = (cls_name, func)
    sites: list[DrawSite] = []
    for method_name in order:
        cls_name, func = impl[method_name]
        sites.extend(tags_in_function(
            func, index.constants, f"{cls_name}.{method_name}"
        ))
    return sites


def extract_draw_programs(src_root: Path) -> list[DrawProgram]:
    """Extract every configured engine's draw program from the live tree."""
    programs: list[DrawProgram] = []
    for spec in SUBSYSTEMS:
        source = (Path(src_root) / spec.module).read_text(encoding="utf-8")
        index = _ModuleIndex(ast.parse(source))
        shared_sites: list[DrawSite] = []
        for scope in spec.shared:
            shared_sites.extend(_scope_sites(index, scope))
        for engine, scopes in spec.engines.items():
            sites = list(shared_sites)
            for scope in scopes:
                sites.extend(_scope_sites(index, scope))
            programs.append(DrawProgram(
                subsystem=spec.name,
                engine=engine,
                module=spec.module,
                sites=tuple(sites),
            ))
    return programs


def parity_failures(
    programs: list[DrawProgram],
) -> list[tuple[str, str, str, str]]:
    """(subsystem, module, engine_a, engine_b) pairs whose programs differ."""
    by_subsystem: dict[str, list[DrawProgram]] = {}
    for program in programs:
        by_subsystem.setdefault(program.subsystem, []).append(program)
    failures: list[tuple[str, str, str, str]] = []
    for subsystem, group in by_subsystem.items():
        if len(group) < 2:
            continue
        reference = group[0]
        for other in group[1:]:
            if other.parity_sequence() != reference.parity_sequence():
                failures.append((
                    subsystem, reference.module,
                    reference.engine, other.engine,
                ))
    return failures


def render_draw_programs(programs: list[DrawProgram]) -> str:
    """The human-readable per-engine stream-order table."""
    lines: list[str] = [
        "RNG draw programs (statically extracted; scope order, overrides",
        "resolved along each engine's MRO; <expr> marks per-item labels)",
    ]
    by_subsystem: dict[str, list[DrawProgram]] = {}
    for program in programs:
        by_subsystem.setdefault(program.subsystem, []).append(program)
    for subsystem, group in by_subsystem.items():
        lines.append("")
        lines.append(f"{subsystem}  [{group[0].module}]")
        for program in group:
            lines.append(f"  engine: {program.engine}")
            if not program.sites:
                lines.append("    (no stream creation sites)")
            for site in program.sites:
                lines.append(
                    f"    {site.scope}:{site.lineno}  "
                    f"{site.helper}{site.render_tag()}"
                )
        if len(group) >= 2:
            sequences = {p.parity_sequence() for p in group}
            verdict = (
                "identical across engines" if len(sequences) == 1
                else "ENGINES DIVERGE"
            )
            lines.append(f"  parity: {verdict}")
    return "\n".join(lines)
