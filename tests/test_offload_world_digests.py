"""Golden digests of offload worlds.

The bit-exact suites compare the builder with the reference in
``tests/reference/offload_world.py``, which has its own copy of the
seed implementation's stages; these digests hold both to the worlds
built before the single-world builders were merged into one
(``tests/test_reference_digests.py`` runs the reference through them).
Any drift in an AS, an edge, a membership, the contributing order, the
traffic matrix or an inbound path changes them; the product's graph,
paths and regions here are the ones a world assembles on first access.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.sim.offload_world import OffloadWorldConfig, build_offload_world
from repro.sim.scenarios import rediris_small_config
from tests.engine_equivalence import tiny_offload_config

WORLD_DIGESTS = {
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


def offload_world_digest(world) -> str:
    """sha256 over the world's content, in a fixed order.

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


class TestOffloadWorldDigests:
    @pytest.mark.parametrize("name,config", [
        ("tiny-seed9", tiny_offload_config(seed=9)),
        ("rediris-small-seed5", rediris_small_config(5)),
    ])
    def test_world_digest(self, name, config):
        world = build_offload_world(config)
        assert offload_world_digest(world) == WORLD_DIGESTS[name]

    @pytest.mark.slow
    def test_paper_scale_world_digest(self):
        world = build_offload_world(OffloadWorldConfig(seed=42))
        assert offload_world_digest(world) == WORLD_DIGESTS["paper-seed42"]
