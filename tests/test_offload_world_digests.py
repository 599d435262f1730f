"""Golden digests of offload worlds.

The bit-exact suites compare the builder with the reference in
``tests/reference/offload_world.py``, which has its own copy of the
seed implementation's stages; these digests hold the product's worlds
to the ones built before the single-world builders were merged into
one.  Any drift in a membership, the contributing order, the traffic
matrix, an AS's announced space, name or kind, an edge, or a route
toward RedIRIS changes them.  The values were taken from the graph
world the product assembled until it routed on arrays, through
:func:`graph_content_digest`; ``tests/test_reference_digests.py`` holds
the reference's graph and paths to them the same way.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.offload.potential import ROUTE_KINDS
from repro.sim.offload_world import OffloadWorldConfig, build_offload_world
from repro.sim.scenarios import rediris_small_config
from tests.engine_equivalence import inbound_routes, tiny_offload_config

WORLD_DIGESTS = {
    "tiny-seed9": (
        "c361cd0130181b34b5fa95d4f6b66afa"
        "eb98be9cd05bf9b17c2c31e654b1fe59"
    ),
    "rediris-small-seed5": (
        "bed83adf79eb5db0a3f6e092645424ac"
        "8441911bcc039adbe3a1de749da81f5e"
    ),
    "paper-seed42": (
        "8375ba7957b9ecfac856f924df1a6f3a"
        "d47425845e2ae58f6c3b55946fc315a0"
    ),
}


def _content_digest(world, space, ases, edges, peers, routes) -> str:
    """sha256 over a world's content, in a fixed order.

    The memberships by IXP; the contributing order; both traffic-matrix
    columns' dtype and bytes; then, in ASN order, every AS's announced
    space and ``[asn, name, kind]``; the customer→provider pairs and the
    peerings ``[low, high]``, sorted; and ``[asn, next hop, route kind]``
    of every AS that routes toward RedIRIS.
    """
    digest = hashlib.sha256()

    def feed(value) -> None:
        digest.update(json.dumps(value, sort_keys=True).encode())
        digest.update(b"\n")

    feed({
        acronym: sorted(int(a) for a in members)
        for acronym, members in sorted(world.memberships.items())
    })
    feed([int(a) for a in world.contributing])
    for column in (world.matrix.inbound_bps, world.matrix.outbound_bps):
        column = np.ascontiguousarray(column)
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    for value in (space, ases, sorted(edges), sorted(peers), routes):
        feed(value)
    return digest.hexdigest()


def offload_world_digest(world) -> str:
    """The digest of a product world, from its AS level and routes."""
    level, routes = inbound_routes(world)
    asns = level.asns.tolist()
    return _content_digest(
        world,
        world.address_space.tolist(),
        [[a, name, kind.value]
         for a, name, kind in zip(asns, level.names, level.kinds)],
        [[asns[c], asns[p]]
         for c, p in zip(level.customer.tolist(), level.provider.tolist())],
        [sorted([asns[a], asns[b]]) for a, b in level.peers.tolist()],
        [[asns[i], asns[routes.next_hop[i]], ROUTE_KINDS[routes.kind[i]]]
         for i in np.flatnonzero(routes.kind >= 0).tolist()],
    )


def graph_content_digest(world) -> str:
    """The same digest read off an object graph and its inbound paths."""
    graph = world.graph
    ases = graph.ases()
    return _content_digest(
        world,
        [int(a.address_space) for a in ases],
        [[int(a.asn), a.name, a.kind.value] for a in ases],
        [[int(a.asn), int(p)] for a in ases for p in graph.providers_of(a.asn)],
        [[int(a.asn), int(b)] for a in ases for b in graph.peers_of(a.asn)
         if a.asn < b],
        [[int(asn), int(path.next_hop), path.kind.value]
         for asn, path in sorted(world.inbound_paths.items())],
    )


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
