"""Golden digests of offload-family trial payloads, at full precision.

The golden reports print rounded means and the world digests pin the AS
graph, not the member-cone CSR the studies read; ``make perf-check``
pins only the paper-scale economics batch.  These digests hash every
trial's encoded payload, as it is (results carry no timing), of the
offload, economics, joint and failover studies on the ~3k-AS world, so
any drift in a member cone, a policy code, the traffic matrix or a
study's arithmetic changes them.  Offload and economics run once per trial and
once three worlds to a work item; both must give the pinned digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import (
    EconomicsStudy,
    EconomicsVariant,
    FailoverStudy,
    FailoverVariant,
    JointStudy,
    JointVariant,
    OffloadStudy,
    OffloadVariant,
    StudyConfig,
    run_study,
)
from repro.faults import FaultConfig
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.scenarios import rediris_small_config

SEEDS = (1, 2, 3)

PAYLOAD_DIGESTS = {
    "offload": (
        "29c839734aa21b382721b30e25275b59"
        "7fd9157f0c5db171b623a461b142f438"
    ),
    "economics": (
        "bf11c684d09ebeb9f793cb7c3f103c02"
        "054477a1fc694c40c6cfed4f33a2a603"
    ),
    "joint": (
        "93ce7943ce5b0940380f431a8f0fef4b"
        "8e077ffc0631952d84c7c836177bee6f"
    ),
    "failover": (
        "69363db04a1322d7673f902f4a6756a3"
        "6dfd4214ab93744c52f9056a66b764e9"
    ),
}


def _studies():
    world = rediris_small_config()
    return {
        "offload": OffloadStudy(variants=(
            OffloadVariant(name="small", world=world, max_ixps=6),
            OffloadVariant(name="group1", world=world, group=1, max_ixps=6),
        )),
        "economics": EconomicsStudy(variants=(
            EconomicsVariant(name="small", world=world, max_ixps=8),
        )),
        "joint": JointStudy(variants=(
            JointVariant(
                name="small",
                detection_world=DetectionWorldConfig(
                    specs=(spec_by_acronym("TorIX"),)
                ),
                offload_world=world,
            ),
        )),
        "failover": FailoverStudy(variants=tuple(
            FailoverVariant(
                name=f"dark={scale}x", world=world, max_ixps=6,
                faults=FaultConfig(duration_scale=scale),
            )
            for scale in (1.0, 4.0)
        )),
    }


def payload_digest(study, trial_batch: int) -> str:
    """sha256 over every trial's encoded payload, by trial id."""
    result = run_study(study, StudyConfig(
        seeds=SEEDS, workers=1, trial_batch=trial_batch,
    ))
    assert not result.failures
    rows = [
        study.encode(trial)
        for trial in sorted(result.trials, key=lambda t: t.trial_id)
    ]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("kind", sorted(PAYLOAD_DIGESTS))
def test_per_trial_payload_digest(kind):
    assert payload_digest(_studies()[kind], 1) == PAYLOAD_DIGESTS[kind]


@pytest.mark.parametrize("kind", ["economics", "offload"])
def test_batched_payload_digest(kind):
    assert payload_digest(_studies()[kind], 3) == PAYLOAD_DIGESTS[kind]
