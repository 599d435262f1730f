"""Every ``src/`` definition is reached from a front door, not only by tests.

The front doors are the package's module-level code (``python -m repro``
included), the examples, the benches, perfbench, the reference
implementations under ``tests/reference/``, the Makefile and the CI
workflow.  Reach is computed by name to a fixed point:

* a *reference* is a name, an attribute or a ``getattr``/``hasattr``
  name in reached code, and, in the front doors outside ``src/``, any
  identifier-shaped string constant (perfbench wraps its layers by
  name); imports and ``__all__`` lists reference nothing, so a re-export
  keeps nothing alive;
* a module-level function or class is reached when its name is
  referenced; a method only when its class is reached and its name is
  referenced as an attribute or a string, and a dunder or ``visit_*``
  method whenever its class is;
* a reached definition's body (decorators, defaults and annotations
  included) adds its references.

A definition nothing but unit tests reaches is code kept for its own
tests: the suite names each one.  ``INSTRUMENTS`` are the exceptions,
definitions the tests use to check code that stays.  ``ORACLE_KEPT``
pins the definitions only the oracles under ``tests/reference/`` keep
alive, so an oracle cannot quietly hold product code no front door
uses.

Matching by name has a blind spot: a definition shares its reach with
every same-named reference.  The detection object model's ``IXP`` class
stayed "reached" through ``EntityKind.IXP``, and ``Pseudowire`` through
the ``circuits: list[Pseudowire]`` annotation, long after no front door
used either; both left ``src/`` with the rest of that model, found by
reading, not by this suite.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CODE_ROOTS = ("examples", "benchmarks", "perfbench", "tests/reference")
TEXT_ROOTS = ("Makefile", ".github/workflows/ci.yml")

#: Test instruments and oracles: reached by tests only, kept because
#: they check code that stays.
INSTRUMENTS = frozenset({
    "repro.core.detection.campaign.ProbeCampaign.collect_ixp",
    "repro.core.detection.measurements.InterfaceMeasurement.distinct_ttls",
    "repro.core.detection.results.CampaignResult.identified_interface_count",
    "repro.core.detection.results.CampaignResult.remote_interfaces",
    "repro.core.economics.fitting.DecayFit.predict",
    "repro.core.economics.model.CostModel.numeric_optimal_remote_extra",
    "repro.core.economics.model.CostModel.total_cost",
    "repro.core.offload.peergroups.PeerGroups.group_members",
    "repro.experiments.engine.study_fingerprint",
    "repro.experiments.transport.SegmentManager.live_segments",
    "repro.experiments.transport.segment_exists",
    "repro.lg.client.LookingGlassClient.queries_dropped",
    "repro.lg.client.LookingGlassClient.queries_sent",
    "repro.sim.detection_world.DetectionWorld.remote_truth_count",
    "repro.sim.megatopo.MegaWorld.coverage_masks",
    "repro.sim.megatopo.MegaWorld.membership_masks",
    "repro.sim.megatopo.MegaWorld.providers_of_index",
    "repro.sim.megatopo.MegaWorld.reach_counts",
})

#: ``src/`` definitions reached only because ``tests/reference/`` is a
#: front door.  None: an oracle keeps its own copy of what it leans on.
ORACLE_KEPT: frozenset[str] = frozenset()

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class References:
    """Names and attributes seen so far.

    A name looked up by string counts as an attribute: a ``getattr`` or
    ``hasattr`` name, and with ``strings`` every identifier-shaped string
    constant.  So do the names in a class body, where methods are
    aliased (``visit_SetComp = _check_comprehension``).
    """

    names: set[str] = field(default_factory=set)
    attributes: set[str] = field(default_factory=set)

    def add(self, nodes, *, strings: bool = False,
            class_body: bool = False) -> None:
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    self.names.add(sub.id)
                    if class_body:
                        self.attributes.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    self.attributes.add(sub.attr)
                elif isinstance(sub, ast.Constant) and strings and \
                        isinstance(sub.value, str) and \
                        _IDENTIFIER.fullmatch(sub.value):
                    self.attributes.add(sub.value)
                elif isinstance(sub, ast.Call) and \
                        isinstance(sub.func, ast.Name) and \
                        sub.func.id in ("getattr", "hasattr") and \
                        len(sub.args) > 1 and \
                        isinstance(sub.args[1], ast.Constant):
                    self.attributes.add(str(sub.args[1].value))


@dataclass(frozen=True)
class Definition:
    qualname: str
    name: str
    nodes: tuple[ast.AST, ...]
    owner: str | None = None
    is_class: bool = False

    def referenced(self, refs: References) -> bool:
        if self.owner is None:
            return self.name in refs.names or self.name in refs.attributes
        return self.name in refs.attributes or self.name.startswith("visit_") \
            or (self.name.startswith("__") and self.name.endswith("__"))


def _is_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def class_definitions(node: ast.ClassDef, qualname: str,
                      owner: str | None = None) -> list[Definition]:
    """The class (its header and non-def body) and its methods."""
    header = (*node.decorator_list, *node.bases, *node.keywords)
    own = [stmt for stmt in node.body if not isinstance(stmt, _DEFS)]
    found = [Definition(qualname, node.name, (*header, *own), owner, True)]
    for stmt in node.body:
        if isinstance(stmt, ast.ClassDef):
            found += class_definitions(stmt, f"{qualname}.{stmt.name}", qualname)
        elif isinstance(stmt, _DEFS):
            found.append(Definition(f"{qualname}.{stmt.name}", stmt.name,
                                    (stmt,), qualname))
    return found


def module_definitions(tree: ast.Module, module: str,
                       refs: References) -> list[Definition]:
    """A module's definitions; its other top-level code goes into ``refs``."""
    found: list[Definition] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            found += class_definitions(stmt, f"{module}.{stmt.name}")
        elif isinstance(stmt, _DEFS):
            found.append(Definition(f"{module}.{stmt.name}", stmt.name, (stmt,)))
        elif not _is_all(stmt):
            refs.add([stmt])
    return found


def reach(definitions: list[Definition], refs: References,
          instruments: frozenset[str] = frozenset()) -> set[str]:
    """The qualnames reached from ``refs``, to a fixed point."""
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for d in definitions:
            if d.qualname in reached or (d.owner and d.owner not in reached):
                continue
            if d.referenced(refs) or d.qualname in instruments:
                reached.add(d.qualname)
                refs.add(d.nodes, class_body=d.is_class)
                grew = True
    return reached


def unreached(instruments: frozenset[str] = INSTRUMENTS,
              roots: tuple[str, ...] = CODE_ROOTS) -> list[str]:
    """The ``src/`` definitions no front door reaches, sorted."""
    refs = References()
    definitions: list[Definition] = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += module_definitions(
            tree, module.removesuffix(".__init__"), refs)
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            refs.add([tree], strings=True)
    for name in TEXT_ROOTS:
        tokens = _IDENTIFIER.findall((ROOT / name).read_text())
        refs.names.update(tokens)
        refs.attributes.update(tokens)
    reached = reach(definitions, refs, instruments)
    return sorted(d.qualname for d in definitions if d.qualname not in reached)


def test_every_src_definition_is_reached_from_a_front_door():
    leftover = unreached()
    assert not leftover, (
        "src/ definitions only tests reach (delete them, or list a test "
        "instrument in INSTRUMENTS):\n  " + "\n  ".join(leftover))


def test_every_instrument_is_reached_by_tests_only():
    """Each instrument exists, and nothing but the allow-list keeps it."""
    assert sorted(INSTRUMENTS - set(unreached(frozenset()))) == []


def test_oracles_keep_only_the_pinned_definitions():
    """What only ``tests/reference/`` reaches is exactly ``ORACLE_KEPT``."""
    without = tuple(r for r in CODE_ROOTS if r != "tests/reference")
    kept = set(unreached(roots=without)) - set(unreached())
    assert sorted(kept) == sorted(ORACLE_KEPT)


def test_reach_follows_names_attributes_and_strings():
    refs = References()
    definitions = module_definitions(ast.parse(
        "class Kept:\n"
        "    alias = aliased\n"
        "    def __len__(self): return 0\n"
        "    def aliased(self): pass\n"
        "    def used(self): return helper()\n"
        "    def unused(self): pass\n"
        "    def local(self): pass\n"
        "    def looked_up(self): pass\n"
        "class Dropped:\n"
        "    def used(self): pass\n"
        "def helper(): pass\n"
        "def wrapped(): pass\n"
        "def orphan(): pass\n"
        "KEEP = Kept().used()\n"
        "LABEL = 'orphan'\n"
        "hasattr(KEEP, 'looked_up')\n"
        "local = 1\n"), "m", refs)
    refs.add([ast.parse("wrap(m, 'wrapped')")], strings=True)
    assert reach(definitions, refs) == {
        "m.Kept", "m.Kept.__len__", "m.Kept.aliased", "m.Kept.looked_up",
        "m.Kept.used", "m.helper", "m.wrapped"}
