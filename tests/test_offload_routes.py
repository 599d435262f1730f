"""The product's array routes against the reference route engine.

:func:`repro.core.offload.potential.routes_toward` shares no code with
:class:`tests.reference.routing.RouteComputation`.  Every AS's
reachability, next hop, path length and route kind must equal the
oracle's best paths: toward RedIRIS on offload worlds (the reference
world's graph), and toward every AS on the hand-worked mini-internet
and on random hierarchies of ``tests/test_bgp_routing.py``, converted
to arrays.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.offload.potential import routes_toward
from repro.sim.offload_world import ASLevel, build_offload_world
from repro.sim.scenarios import offload_preset_config
from tests.conftest import small_offload_config
from tests.engine_equivalence import (
    assert_routes_match_paths,
    inbound_routes,
    tiny_offload_config,
)
from tests.reference.offload_world import build_scalar_offload_world
from tests.reference.routing import RouteComputation
from tests.test_bgp_routing import _random_hierarchy, mini_internet  # noqa: F401


def level_of(graph) -> ASLevel:
    """An object graph's AS level, laid out as a product world's."""
    ases = graph.ases()
    asns = np.array([a.asn for a in ases], dtype=np.int64)
    edges = [(a.asn, p) for a in ases for p in graph.providers_of(a.asn)]
    peers = [(a.asn, b) for a in ases for b in graph.peers_of(a.asn)
             if a.asn < b]
    edges_at = np.searchsorted(asns, np.array(edges).reshape(-1, 2))
    return ASLevel(
        asns=asns,
        names=[a.name for a in ases],
        kinds=[a.kind for a in ases],
        customer=edges_at[:, 0],
        provider=edges_at[:, 1],
        peers=np.searchsorted(asns, np.array(peers).reshape(-1, 2)),
    )


def assert_routes_match_everywhere(graph) -> None:
    level = level_of(graph)
    oracle = RouteComputation(graph)
    for destination, asn in enumerate(level.asns.tolist()):
        assert_routes_match_paths(
            level, routes_toward(level, destination),
            oracle.best_paths_to(asn),
        )


def _peered_hierarchy(seed: int):
    """A random hierarchy plus random peerings between unrelated ASes."""
    graph = _random_hierarchy(seed)
    rng = np.random.default_rng(seed)
    for a, b in rng.integers(1, 31, size=(12, 2)).tolist():
        if a != b and graph.relationship(a, b) is None:
            graph.add_peering(a, b)
    return graph


class TestGraphsConvertedToArrays:
    def test_mini_internet_toward_every_as(self, mini_internet):  # noqa: F811
        assert_routes_match_everywhere(mini_internet)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_hierarchies_toward_every_as(self, seed):
        assert_routes_match_everywhere(_random_hierarchy(seed))
        assert_routes_match_everywhere(_peered_hierarchy(seed))


def _assert_world_routes_match(config) -> None:
    level, routes = inbound_routes(build_offload_world(config))
    assert_routes_match_paths(
        level, routes, build_scalar_offload_world(config).inbound_paths
    )


class TestOffloadWorldRoutes:
    @pytest.mark.parametrize("config", [
        tiny_offload_config(seed=9), small_offload_config(),
    ], ids=["tiny", "small"])
    def test_small_worlds(self, config):
        _assert_world_routes_match(config)

    @pytest.mark.parametrize("seed", range(4))
    def test_paper_scale_worlds(self, seed):
        _assert_world_routes_match(
            replace(offload_preset_config("paper65"), seed=seed)
        )
