"""Golden digests of the scalar references' outputs.

The references in ``tests/reference/`` are oracles: the statistical
suites are only as good as the references are faithful to the seed
implementation.  These digests were taken from that implementation's
pools and detection worlds before it moved out of ``src/``; any change
to a reference's draws or realization changes them.  The offload
reference keeps the digests of its whole object graph, taken from the
product's graph world before it moved out of ``src/``, and is held to
the product's pinned world digests
(``tests/test_offload_world_digests.py``): the two builders share no
stage code, so a change that moved both would have to move them alike.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
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
    graph_content_digest,
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


OFFLOAD_GRAPH_DIGESTS = {
    "tiny-seed9": (
        "1682f6d12defbb780755279b423a187f"
        "611d40fa5f9aaa1c063f5e80ca91e7b2"
    ),
    "rediris-small-seed5": (
        "2d6059e30eb9b3568e9c476e9a498dae"
        "2e0b618e459fdb5348d2e9ffe15fee4e"
    ),
    "paper-seed42": (
        "918a72eabd51baad0f34ad94b4bbba3b"
        "dca68152ebb36870c5fb441df8282aba"
    ),
}


def offload_graph_digest(world) -> str:
    """sha256 over a graph world's content, in a fixed order.

    Every AS in ASN order (kind, policy, address space, tags, region,
    providers, customers, peers); the memberships by IXP; the
    contributing order; both traffic-matrix columns' dtype and bytes;
    and each inbound path's ASNs and route kind, by source ASN.
    """
    digest = hashlib.sha256()

    def feed(value) -> None:
        digest.update(json.dumps(value, sort_keys=True).encode())
        digest.update(b"\n")

    graph = world.graph
    for asn in graph.asns():
        asys = graph.get(asn)
        feed([
            int(asn), asys.kind.value, asys.policy.value,
            int(asys.address_space), sorted(asys.tags),
            world.region_of.get(asn),
            sorted(int(a) for a in graph.providers_of(asn)),
            sorted(int(a) for a in graph.customers_of(asn)),
            sorted(int(a) for a in graph.peers_of(asn)),
        ])
    feed({
        acronym: sorted(int(a) for a in members)
        for acronym, members in sorted(world.memberships.items())
    })
    feed([int(a) for a in world.contributing])
    for column in (world.matrix.inbound_bps, world.matrix.outbound_bps):
        column = np.ascontiguousarray(column)
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    feed([
        [int(asn), [int(a) for a in path.asns], path.kind.value]
        for asn, path in sorted(world.inbound_paths.items())
    ])
    return digest.hexdigest()


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
        assert offload_graph_digest(world) == OFFLOAD_GRAPH_DIGESTS[name]
        assert graph_content_digest(world) == OFFLOAD_WORLD_DIGESTS[name]
