"""The study registry: one request schema behind the CLI, serve and scenarios.

Three contracts:

* **stored results stay addressable** — the fingerprints of the service's
  request bodies and of every scenario are pinned as literals, so a
  resolver change that silently re-addresses stored artifacts fails here;
* **the front doors agree** — ``repro study <kind>`` and the equivalent
  request resolve to the same study, so a CLI run's artifact answers the
  request as a full resume;
* **nothing is lost silently** — a quarantined trial reaches the report
  of every front end as the run's coverage note.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    STUDIES,
    StudyConfig,
    render_report,
    request_kinds,
    resolve,
    run_study,
    study_fingerprint,
)
from repro.experiments import ensemble
from repro.experiments.requests import ENGINE, SCENARIO_OPTIONS
from repro.experiments.scenarios import SCENARIOS
from repro.serve.jobs import resolve_request

SERVE_README = (
    Path(__file__).resolve().parent.parent / "src/repro/serve/README.md"
)

#: Fingerprints computed before the registry existed, with seeds
#: ``{"count": 2}``: the bodies of the serve and scheduler suites (all one
#: TorIX detection study) and of the serve-mixed bench workload.
PINNED_REQUESTS = {
    "detection-torix": (
        {"study": "detection", "config": {"ixps": ["TorIX"], "workers": 1}},
        "d557230799ee6317",
    ),
    "detection-torix-deadline": (
        {"study": "detection", "config": {
            "ixps": ["TorIX"], "trial_timeout_s": 2.5, "trial_retries": 1,
        }},
        "d557230799ee6317",
    ),
    "offload-small": (
        {"study": "offload", "config": {"preset": "small", "max_ixps": 8}},
        "35812ca1c7bf2c2c",
    ),
    "economics-small": (
        {"study": "economics", "config": {"preset": "small"}},
        "245c0655cd0ebd9e",
    ),
    # The CLI defaults of the kinds the service could not run before.
    "joint-small": ({"study": "joint", "config": {}}, "90a32a0d0a9789b5"),
    "mega-smoke": ({"study": "mega", "config": {}}, "b816a2aa94d9ed5d"),
}

#: Every scenario at preset ``small``, seeds (0, 1).
PINNED_SCENARIOS = {
    "behavior-stress": "ac430a31e17adbb7",
    "exclusion-ablation": "fe7478e0d25eb571",
    "price-plane": "5117ff0bf332b707",
    "joint": "90a32a0d0a9789b5",
    "failover": "77993d5ebecd5ce3",
    "churned-detection": "1024b3b68fa6ebde",
}


class TestPinnedFingerprints:
    @pytest.mark.parametrize("label", sorted(PINNED_REQUESTS))
    def test_request_fingerprint(self, label):
        body, expected = PINNED_REQUESTS[label]
        body = {**body, "config": {**body["config"], "seeds": {"count": 2}}}
        _, study, config = resolve_request(body)
        assert study_fingerprint(study, config.seeds) == expected

    @pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
    def test_scenario_fingerprint(self, name):
        grid = SCENARIOS[name].grid("small")
        assert study_fingerprint(grid, (0, 1)) == PINNED_SCENARIOS[name]
        _, study, config = resolve("scenario", {"name": name, "seeds": [0, 1]})
        assert study_fingerprint(study, config.seeds) == PINNED_SCENARIOS[name]


class TestRegistry:
    def test_request_kinds(self):
        assert request_kinds() == (
            "detection", "offload", "economics", "joint", "mega",
        )
        # failover is reported by the registry but only runs as a scenario.
        assert "failover" in STUDIES
        with pytest.raises(ConfigurationError, match="unknown study kind"):
            resolve("failover", {})

    def test_per_kind_defaults(self):
        _, _, mega = resolve("mega", {})
        assert mega.seeds == (0, 1, 2, 3) and mega.transport == "shm"
        _, _, offload = resolve("offload", {})
        assert len(offload.seeds) == 16 and offload.transport == "pickle"

    def test_keys_are_the_union_of_the_old_front_doors(self):
        # joint and mega were CLI-only: no engine keys beyond their flags.
        with pytest.raises(ConfigurationError, match="trial_batch"):
            resolve("joint", {"trial_batch": 4})
        with pytest.raises(ConfigurationError, match="trial_timeout_s"):
            resolve("mega", {"trial_timeout_s": 1.0})

    def test_grid_axes_deduplicate_in_order(self):
        _, study, _ = resolve(
            "detection", {"ixps": ["TorIX"], "threshold_ms": [10, 5, 10.0]}
        )
        assert study.variant_names() == (
            "remoteness_threshold_ms=10.0", "remoteness_threshold_ms=5.0",
        )

    def test_null_clears_an_optional_key(self):
        _, study, _ = resolve("joint", {"remote_fraction": None})
        assert study.variants[0].remote_fraction is None
        _, _, config = resolve("detection", {"trial_timeout_s": None})
        assert config.trial_timeout_s is None


@pytest.mark.parametrize("kind", (*request_kinds(), "scenario"))
def test_serve_readme_schema_table_matches_the_registry(kind):
    row = next(
        line for line in SERVE_README.read_text().splitlines()
        if line.startswith(f"| `{kind}`")
    )
    study_cell, engine_cell = (
        re.sub(r"\([^)]*\)", "", cell)  # drop "(default; choices)" notes
        for cell in row.split("|")[2:4]
    )
    documented = set(re.findall(r"`(\w+)`", study_cell))
    engine = {option.key for option in ENGINE}
    documented |= engine if engine_cell.strip() == "all" else set(
        re.findall(r"`(\w+)`", engine_cell)
    )
    options = SCENARIO_OPTIONS if kind == "scenario" else STUDIES[kind].options
    assert documented == {option.key for option in options}


class TestCliMatchesRequests:
    """A CLI run's artifact answers the equivalent request in full."""

    @pytest.mark.parametrize("kind", request_kinds())
    def test_cli_artifact_is_a_full_resume(self, kind, tmp_path, capsys):
        from repro.cli import study_main

        assert study_main([
            kind, "--seeds", "2", "--workers", "1", "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        _, study, config = resolve_request({
            "study": kind, "config": {"seeds": {"count": 2}, "workers": 1},
        })
        result = run_study(study, replace(config, out_dir=str(tmp_path)))
        assert result.resumed == len(result.trials) == 2 * len(
            study.variant_names()
        )


def _poison_seed_one(monkeypatch):
    """Make every detection trial of seed 1 raise inside ``measure``."""
    measure = ensemble.measure_detection_trial

    def poisoned(spec, world):
        if spec.seed == 1:
            raise RuntimeError("poisoned probe")
        return measure(spec, world)

    monkeypatch.setattr(ensemble, "measure_detection_trial", poisoned)


class TestPoisonedTrialReachesTheReport:
    def test_render_report_appends_the_coverage_note(self, monkeypatch):
        _poison_seed_one(monkeypatch)
        _, study, config = resolve(
            "detection", {"ixps": ["TorIX"], "seeds": [0, 1, 2], "workers": 1}
        )
        result = run_study(study, config)
        report = render_report(study, result)
        # The title counts the trials attempted, the table the survivors.
        assert report.startswith("Ensemble: 3 trials (1 variant(s) x 3 seed(s)")
        assert report.splitlines()[3].split()[:2] == ["base", "2"]
        assert report.endswith(f"\n\nNote: {result.coverage_note()}")
        assert "degraded coverage: 1 of 3 trials failed" in report

    def test_study_cli(self, monkeypatch, capsys):
        from repro.cli import main

        _poison_seed_one(monkeypatch)
        assert main([
            "study", "detection", "--ixps", "TorIX", "--seeds", "3",
            "--workers", "1",
        ]) == 0
        assert "degraded coverage: 1 of 3 trials failed" in \
            capsys.readouterr().out

    def test_scenarios_cli(self, monkeypatch, capsys):
        from repro.cli import main

        _poison_seed_one(monkeypatch)
        assert main([
            "scenarios", "run", "churned-detection", "--seeds", "3",
            "--workers", "1",
        ]) == 0
        assert "degraded coverage: 5 of 15 trials failed" in \
            capsys.readouterr().out


def test_title_counts_a_variant_that_lost_every_trial(capsys):
    from repro.cli import main

    assert main([
        "study", "detection", "--seeds", "1", "--trial-timeout-s", "0.001",
        "--workers", "1",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Ensemble: 1 trials (1 variant(s) x 1 seed(s)")
    assert lines[3].split() == ["base", "0"] + ["n/a"] * 5


def test_clean_run_has_no_note():
    _, study, config = resolve(
        "offload", {"seeds": [0], "max_ixps": 2, "workers": 1}
    )
    result = run_study(study, config)
    assert result.coverage_note() is None
    assert "Note:" not in render_report(study, result)


#: Every float key of every request schema, as (kind, option) pairs.
FLOAT_OPTIONS = [
    (kind, option)
    for kind, options in (
        *((kind, STUDIES[kind].options) for kind in request_kinds()),
        ("scenario", SCENARIO_OPTIONS),
    )
    for option in options
    if option.type is float
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "kind, option", FLOAT_OPTIONS,
    ids=[f"{kind}-{option.key}" for kind, option in FLOAT_OPTIONS],
)
def test_float_keys_reject_non_finite_numbers(kind, option, value):
    # Python's JSON parser reads NaN and ±Infinity, and argparse's float
    # reads "nan" and "inf": neither may reach a study.
    number = float(value)
    config = {option.key: [number] if option.many else number}
    if kind == "scenario":
        config["name"] = "failover"
    with pytest.raises(ConfigurationError, match=option.key):
        resolve(kind, config)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_study_config_rejects_a_non_finite_timeout(value):
    with pytest.raises(ConfigurationError, match="trial_timeout_s"):
        StudyConfig(seeds=(0,), trial_timeout_s=float(value))


def test_study_cli_rejects_nan_as_a_usage_error(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["study", "economics", "--price-per-mbps", "nan", "--seeds", "1"])
    assert exit_info.value.code == 2
    assert "price_per_mbps" in capsys.readouterr().err


def test_study_config_engine_keys_pass_through():
    _, _, config = resolve("economics", {
        "seeds": [3], "workers": 1, "trial_batch": 2, "transport": "shm",
        "trial_retries": 2, "trial_timeout_s": 5,
    })
    assert config == StudyConfig(
        seeds=(3,), workers=1, trial_batch=2, transport="shm",
        trial_retries=2, trial_timeout_s=5.0,
    )
