"""The ``repro lint`` suite: fixtures, suppressions, live tree, parity.

The fixture files under ``tests/lint_fixtures/`` are linted *as if*
they lived inside the audited packages (the rule families are scoped by
package prefix), so each known-bad snippet must trip exactly its rule
family and each known-good twin must stay clean.  The live-tree test is
the real gate: the repo's own sources must lint clean forever.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.devtools.lint import (
    draw_parity_violations,
    extract_draw_programs,
    lint_files,
    lint_main,
    lint_source,
    parity_failures,
    render_draw_programs,
    rule_catalog,
)
from repro.devtools.lint.drawprograms import (
    SUBSYSTEMS,
    _ModuleIndex,
    _Scope,
    _scope_sites,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_ROOT = Path(__file__).parent.parent / "src"
REFERENCE_ROOT = Path(__file__).parent / "reference"


def lint_fixture(name: str, relpath: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, relpath, path=name)


class TestBadFixtures:
    """Every known-bad fixture trips its expected rule ids."""

    @pytest.mark.parametrize("name,relpath,expected", [
        ("bad_determinism.py", "repro/sim/fixture.py",
         {"det-random", "det-np-random", "det-wallclock", "det-entropy",
          "det-popitem", "det-set-iter"}),
        ("bad_drawstream.py", "repro/sim/fixture.py",
         {"draw-nonliteral-tag"}),
        ("bad_poolpurity.py", "repro/experiments/fixture.py",
         {"pool-submit-module-fn", "pool-worker-globals"}),
        ("bad_reporting.py", "repro/reporting/fixture.py",
         {"rpt-round", "rpt-float-format", "rpt-set-iter"}),
        ("bad_shm.py", "repro/experiments/fixture.py",
         {"pool-raw-shm"}),
    ])
    def test_expected_rules_fire(self, name, relpath, expected):
        rules = {v.rule for v in lint_fixture(name, relpath)}
        assert expected <= rules, f"missing: {expected - rules}"

    def test_bad_determinism_counts(self):
        violations = lint_fixture(
            "bad_determinism.py", "repro/sim/fixture.py"
        )
        by_rule: dict[str, int] = {}
        for violation in violations:
            by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
        # import + call for random; legacy rand + unseeded default_rng.
        assert by_rule["det-random"] == 2
        assert by_rule["det-np-random"] == 2
        assert by_rule["det-set-iter"] == 2

    def test_bad_poolpurity_counts(self):
        violations = lint_fixture(
            "bad_poolpurity.py", "repro/experiments/fixture.py"
        )
        stores = [v for v in violations if v.rule == "pool-worker-globals"]
        # The submitted worker's own store, and the store in the helper
        # another submitted worker calls.
        assert len(stores) == 2

    def test_violations_carry_locations(self):
        violations = lint_fixture(
            "bad_reporting.py", "repro/reporting/fixture.py"
        )
        assert all(v.line > 0 and v.col > 0 for v in violations)
        assert all(v.path == "bad_reporting.py" for v in violations)


class TestGoodFixtures:
    """The known-good twins stay clean under the same scoping."""

    @pytest.mark.parametrize("name,relpath", [
        ("good_determinism.py", "repro/sim/fixture.py"),
        ("good_drawstream.py", "repro/sim/fixture.py"),
        ("good_poolpurity.py", "repro/experiments/fixture.py"),
        ("good_reporting.py", "repro/reporting/fixture.py"),
        ("good_shm.py", "repro/experiments/fixture.py"),
    ])
    def test_clean(self, name, relpath):
        violations = lint_fixture(name, relpath)
        assert violations == [], [v.render() for v in violations]

    def test_rules_scope_by_package(self):
        # The same bad source outside the audited packages is ignored.
        source = (FIXTURES / "bad_determinism.py").read_text()
        assert lint_source(source, "repro/analysis/fixture.py") == []

    def test_raw_shm_rule_is_project_wide(self):
        # pool-raw-shm has no package scoping: an orphaned segment can
        # come from anywhere in the tree.
        source = (FIXTURES / "bad_shm.py").read_text()
        rules = {v.rule for v in lint_source(source, "repro/sim/fixture.py")}
        assert "pool-raw-shm" in rules

    def test_transport_module_exempt_from_raw_shm(self):
        # The transport module is the one place allowed to construct
        # segments — the bad fixture linted *as* that module is clean.
        source = (FIXTURES / "bad_shm.py").read_text()
        rules = {
            v.rule
            for v in lint_source(source, "repro/experiments/transport.py")
        }
        assert "pool-raw-shm" not in rules


class TestSuppressions:
    def test_suppressed_fixture_is_clean(self):
        violations = lint_fixture("suppressed.py", "repro/sim/fixture.py")
        assert violations == [], [v.render() for v in violations]

    def test_specific_rule_id_required(self):
        source = (
            "def f(items: set):\n"
            "    return [x for x in items]  # repro-lint: ok[rpt-round]\n"
        )
        rules = {v.rule for v in lint_source(source, "repro/sim/x.py")}
        assert rules == {"det-set-iter"}  # wrong id does not suppress

    def test_wildcard_suppression(self):
        source = (
            "def f(items: set):\n"
            "    return [x for x in items]  # repro-lint: ok[*]\n"
        )
        assert lint_source(source, "repro/sim/x.py") == []

    def test_comment_line_above_covers_statement(self):
        source = (
            "def f(items: set):\n"
            "    # scatter is commutative  # repro-lint: ok[det-set-iter]\n"
            "    return [x for x in items]\n"
        )
        assert lint_source(source, "repro/sim/x.py") == []


class TestLiveTree:
    """The real gate: the repo's own sources lint clean."""

    def test_live_tree_clean(self):
        report = lint_files([SRC_ROOT / "repro"], display_root=SRC_ROOT)
        assert report.files_checked > 100
        rendered = [v.render() for v in report.violations]
        assert report.violations == [], rendered

    def test_cli_exit_zero_on_live_tree(self, capsys):
        assert lint_main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_json_format(self, capsys):
        assert lint_main(["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["files_checked"] > 100

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("det-random", "draw-engine-parity", "rpt-round",
                     "pool-submit-module-fn"):
            assert rule in out

    def test_rule_catalog_complete(self):
        catalog = rule_catalog()
        assert {"det-random", "det-np-random", "det-wallclock",
                "det-entropy", "det-popitem", "det-set-iter",
                "draw-nonliteral-tag", "draw-engine-parity",
                "pool-submit-module-fn", "pool-worker-globals",
                "pool-raw-shm",
                "rpt-round", "rpt-float-format", "rpt-set-iter",
                } <= set(catalog)


class TestDrawPrograms:
    """Static stream extraction: the cross-engine parity invariant."""

    def test_multi_engine_programs_identical(self):
        programs = extract_draw_programs(SRC_ROOT)
        by_subsystem: dict[str, list] = {}
        for program in programs:
            by_subsystem.setdefault(program.subsystem, []).append(program)
        # The offload world registers two engines: the trial-batched
        # realizer (repro/sim/offload_batch.py) must open the same
        # streams as the single-world builder.  The detection world, the
        # pool and the campaign have one engine each in src/; their
        # references are held to them by
        # test_reference_programs_match_product.
        engine_counts = {"detection-world": 1, "offload-world": 2,
                         "netpool": 1, "campaign": 1}
        for subsystem, expected in engine_counts.items():
            group = by_subsystem[subsystem]
            assert len(group) == expected, subsystem
            sequences = {p.parity_sequence() for p in group}
            assert len(sequences) == 1, f"{subsystem} engines diverge"
            assert group[0].sites, f"{subsystem} extracted no streams"

    @pytest.mark.parametrize("subsystem,module,scope", [
        ("detection-world", "detection_world.py",
         _Scope("class", "ScalarWorldBuilder",
                mro=("ScalarWorldBuilder",))),
        ("offload-world", "offload_world.py",
         _Scope("class", "ScalarOffloadBuilder",
                mro=("ScalarOffloadBuilder", "_OffloadBuilder"))),
        ("netpool", "netpool.py",
         _Scope("function", "generate_scalar_pool", alias="generate")),
        ("campaign", "campaign.py",
         _Scope("method", "ReferenceCampaign",
                method="_sweep_server_scalar", alias="sweep_server")),
    ])
    def test_reference_programs_match_product(self, subsystem, module, scope):
        """Each scalar reference in tests/reference/ opens the same
        streams, in the same order, as its product builder in src/."""

        def index(path: Path) -> _ModuleIndex:
            return _ModuleIndex(ast.parse(path.read_text(encoding="utf-8")))

        spec = next(s for s in SUBSYSTEMS if s.name == subsystem)
        product_index = index(SRC_ROOT / spec.module)
        sites = [
            site for shared in spec.shared
            for site in _scope_sites(product_index, shared)
        ]
        sites += _scope_sites(
            index(REFERENCE_ROOT / module), scope, fallback=product_index
        )
        product = next(
            p for p in extract_draw_programs(SRC_ROOT)
            if p.subsystem == subsystem
        )
        assert sites, subsystem
        assert tuple(s.parity_key() for s in sites) == \
            product.parity_sequence()

    def test_offload_stage_streams_extracted(self):
        programs = extract_draw_programs(SRC_ROOT)
        offload = next(
            p for p in programs
            if p.subsystem == "offload-world" and p.engine == "vectorized"
        )
        tags = {site.tag for site in offload.sites}
        for stage in ("giants", "tier2s", "stubs", "globals", "addrspace"):
            assert ("'offload'", f"'{stage}'") in tags, stage
        assert any(tag[0] == "'traffic'" for tag in tags)
        assert any(tag[0] == "'membership'" for tag in tags)

    def test_megatopo_streams_extracted(self):
        # The mega world's whole draw program: the pool seed derivation
        # plus the dedicated hierarchy and membership child streams.
        programs = extract_draw_programs(SRC_ROOT)
        mega = next(p for p in programs if p.subsystem == "megatopo")
        tags = {site.tag for site in mega.sites}
        assert ("'megatopo'", "'pool'") in tags
        for stage in ("t1", "t2", "stubs"):
            assert ("'megatopo'", f"'{stage}'") in tags, stage
        assert any(
            tag[:2] == ("'megatopo'", "'membership'") for tag in tags
        )

    def test_faults_constants_resolved_to_literals(self):
        programs = extract_draw_programs(SRC_ROOT)
        faults = next(p for p in programs if p.subsystem == "faults")
        kinds = {site.tag[1] for site in faults.sites}
        assert {"'probe-loss'", "'port-flap'", "'lg-outage'",
                "'rate-limit-storm'", "'pseudowire-dark'"} == kinds

    def test_no_parity_violations_on_live_tree(self):
        assert parity_failures(extract_draw_programs(SRC_ROOT)) == []
        assert draw_parity_violations(SRC_ROOT) == []

    def test_render_table_and_cli(self, capsys):
        programs = extract_draw_programs(SRC_ROOT)
        table = render_draw_programs(programs)
        assert "identical across engines" in table
        assert "ENGINES DIVERGE" not in table
        assert lint_main(["--draw-programs"]) == 0
        out = capsys.readouterr().out
        assert "offload-world" in out
        assert "_stage_rng('offload', 'giants')" in out
