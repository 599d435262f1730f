"""Artifacts written by the per-kind result types still resume.

``tests/golden/artifacts/`` holds one 2-seed artifact per study kind,
written before the six per-kind result dataclasses and their
``encode``/``decode`` pairs became the one :class:`Trial` record:
detection on the mini3 preset; offload, economics, joint and failover on
the small RedIRIS world; mega on the smoke world.  Each is resumed as
written (v2) and rewritten to v1; either way nothing executes, and the
resumed trials, their payload bytes and the aggregates equal a fresh
run's.  A row whose ``result`` is malformed fails the resume by name.
"""

from __future__ import annotations

import functools
import json
import shutil
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ConfigVariant,
    DetectionStudy,
    EconomicsStudy,
    EconomicsVariant,
    FailoverStudy,
    FailoverVariant,
    JointStudy,
    JointVariant,
    MegaStudy,
    MegaVariant,
    OffloadStudy,
    OffloadVariant,
    StudyConfig,
    aggregate,
    run_study,
)
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.scenarios import mega_smoke_config, mini_specs, rediris_small_config
from tests.artifacts import read_artifact, write_artifact, write_v1_artifact

GOLDEN = Path(__file__).parent / "golden" / "artifacts"
SEEDS = (0, 1)

#: The studies that wrote the golden artifacts, by kind.
STUDIES = {
    "detection": DetectionStudy(variants=(ConfigVariant(
        name="mini3", world=DetectionWorldConfig(specs=mini_specs()),
    ),)),
    "offload": OffloadStudy(variants=(OffloadVariant(
        name="small", world=rediris_small_config(),
    ),)),
    "economics": EconomicsStudy(variants=(EconomicsVariant(
        name="small", world=rediris_small_config(),
    ),)),
    "joint": JointStudy(variants=(JointVariant(
        name="small",
        detection_world=DetectionWorldConfig(specs=mini_specs()),
        offload_world=rediris_small_config(),
    ),)),
    "failover": FailoverStudy(variants=(FailoverVariant(
        name="small", world=rediris_small_config(),
    ),)),
    "mega": MegaStudy(variants=(MegaVariant(
        name="mega-smoke", world=mega_smoke_config(),
    ),)),
}

#: Phase seconds a v1 row carried inside its ``result``.
V1_TIMINGS = {"build_s": 0.5, "study_s": 0.25}


def golden_artifact(kind: str) -> Path:
    (path,) = GOLDEN.glob(f"{kind}_*_trials.jsonl")
    return path


@functools.cache
def fresh_run(kind: str):
    """One run of the kind's study with no artifact: every trial measured."""
    return run_study(STUDIES[kind], StudyConfig(seeds=SEEDS, workers=1))


def resume(kind: str, out_dir: Path):
    return run_study(
        STUDIES[kind], StudyConfig(seeds=SEEDS, workers=1, out_dir=str(out_dir))
    )


@pytest.mark.parametrize("kind", tuple(STUDIES))
class TestGoldenArtifacts:
    def test_v2_artifact_resumes_with_nothing_executed(self, tmp_path, kind):
        source = golden_artifact(kind)
        shutil.copyfile(source, tmp_path / source.name)
        _, rows = read_artifact(source)
        resumed = resume(kind, tmp_path)
        assert resumed.resumed == len(resumed.trials) == len(rows) == 2
        assert not resumed.failures and resumed.world_builds == 0
        assert resumed.trials == fresh_run(kind).trials
        assert resumed.timings == {row["trial_id"]: row["timings"]
                                   for row in rows}
        study = STUDIES[kind]
        assert aggregate(study, resumed) == aggregate(study, fresh_run(kind))

    def test_v1_artifact_resumes_with_nothing_executed(self, tmp_path, kind):
        source = golden_artifact(kind)
        header, rows = read_artifact(source)
        write_v1_artifact(tmp_path / source.name, header, rows, V1_TIMINGS)
        resumed = resume(kind, tmp_path)
        assert resumed.resumed == len(resumed.trials) == 2
        assert not resumed.failures and resumed.world_builds == 0
        assert resumed.trials == fresh_run(kind).trials
        assert all(timing == {"build_s": 0.5, "measure_s": 0.25}
                   for timing in resumed.timings.values())
        study = STUDIES[kind]
        assert aggregate(study, resumed) == aggregate(study, fresh_run(kind))

    def test_fresh_payloads_are_the_written_bytes(self, kind):
        study = STUDIES[kind]
        lines = golden_artifact(kind).read_text().splitlines()[1:]
        trials = fresh_run(kind).trials
        assert len(trials) == len(lines)
        for trial, line in zip(trials, lines):
            assert f'"result": {json.dumps(study.encode(trial))}, ' in line
            assert tuple(trial.values) == study.trial_fields


#: Each malformed ``result`` of the offload artifact's trial 1, and the
#: key names its error must carry.
MALFORMED = {
    "missing-field": (
        lambda result: {k: v for k, v in result.items()
                        if k != "five_ixp_share"},
        ["five_ixp_share"],
    ),
    "extra-field": (lambda result: {**result, "bogus": 1}, ["bogus"]),
    "null": (lambda result: None, []),
}


@pytest.mark.parametrize("case", [*MALFORMED, "absent"])
def test_malformed_row_fails_by_name(tmp_path, case):
    source = golden_artifact("offload")
    header, rows = read_artifact(source)
    if case == "absent":
        del rows[1]["result"]
        named = []
    else:
        malform, named = MALFORMED[case]
        rows[1]["result"] = malform(rows[1]["result"])
    path = tmp_path / source.name
    write_artifact(path, header, rows)
    with pytest.raises(ConfigurationError) as excinfo:
        resume("offload", tmp_path)
    message = str(excinfo.value)
    assert str(path) in message and "trial 1" in message
    for key in named:
        assert key in message
