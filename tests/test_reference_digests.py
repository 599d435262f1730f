"""Golden digests of the scalar references' outputs.

The references in ``tests/reference/`` are oracles: the statistical
suites are only as good as the references are faithful to the seed
implementation.  These digests were taken from that implementation's
pools and detection worlds before it moved out of ``src/``; any change
to a reference's draws or realization changes them.  The offload
reference is held to the product's pinned world digests
(``tests/test_offload_world_digests.py``): the two builders share no
stage code, so a change that moved both would have to move them alike.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.geo.cities import default_city_db
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.netpool import NetworkPoolConfig
from repro.sim.offload_world import OffloadWorldConfig
from repro.sim.scenarios import mini_specs, rediris_small_config
from tests.engine_equivalence import tiny_offload_config
from tests.reference.detection_world import build_scalar_detection_world
from tests.reference.netpool import generate_scalar_pool
from tests.reference.offload_world import build_scalar_offload_world
from tests.test_detection_world_digests import world_digest
from tests.test_offload_world_digests import (
    WORLD_DIGESTS as OFFLOAD_WORLD_DIGESTS,
    offload_world_digest,
)

POOL_DIGESTS = {
    (2000, 7): (
        "9f1ba08d794a921c6afba982b81351b8"
        "76a8dd34dd40dc7ea342031028565f2d"
    ),
    (5600, 42): (
        "2ead2a81cf144cf85bf81b0317cb558d"
        "20e5aaee557d7655261e3fbd8c8339c1"
    ),
}

WORLD_DIGESTS = {
    "mini3-seed11": (
        "2f769d45306a6d52823abba16b46bff5"
        "186763437f462021abdf57caa8781923"
    ),
    "paper22-seed42": (
        "ca4a4755bf37a36a4eaf21ece6ce1e44"
        "a60a02a863e029f72426b879970c3d22"
    ),
}


def object_pool_digest(pool) -> str:
    """sha256 over every entry of an object pool, in pool order."""
    rows = [
        [
            int(n.asn), n.home_city.name, n.asys.kind.value,
            n.asys.policy.value, n.asys.name, n.propensity,
            sorted(n.scope), int(n.asys.address_space),
        ]
        for n in pool.networks
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def scalar_pool_digest(size: int, seed: int) -> str:
    pool = generate_scalar_pool(
        default_city_db(), NetworkPoolConfig(size=size, seed=seed)
    )
    return object_pool_digest(pool)


class TestReferencePoolDigests:
    def test_scalar_pool_digest(self):
        assert scalar_pool_digest(2000, 7) == POOL_DIGESTS[(2000, 7)]

    def test_paper_scale_scalar_pool_digest(self):
        assert scalar_pool_digest(5600, 42) == POOL_DIGESTS[(5600, 42)]


class TestReferenceWorldDigests:
    def test_scalar_mini3_world_digest(self):
        world = build_scalar_detection_world(
            DetectionWorldConfig(seed=11, specs=mini_specs())
        )
        assert world_digest(world) == WORLD_DIGESTS["mini3-seed11"]

    def test_scalar_paper_scale_world_digest(self):
        world = build_scalar_detection_world(DetectionWorldConfig(seed=42))
        assert world_digest(world) == WORLD_DIGESTS["paper22-seed42"]


class TestReferenceOffloadWorldDigests:
    @pytest.mark.parametrize("name,config", [
        ("tiny-seed9", tiny_offload_config(seed=9)),
        ("rediris-small-seed5", rediris_small_config(5)),
        ("paper-seed42", OffloadWorldConfig(seed=42)),
    ])
    def test_scalar_offload_world_digest(self, name, config):
        world = build_scalar_offload_world(config)
        assert offload_world_digest(world) == OFFLOAD_WORLD_DIGESTS[name]
