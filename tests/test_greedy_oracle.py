"""The sparse set-cover kernel against the dense float32 expansions.

The oracles in ``tests/reference/greedy.py`` share no code with
:func:`repro.core.offload.bitsets.greedy_cover_rows`: dense per-member
bitsets, one float32 matrix-vector product per rank, and the mega
study's per-exchange loop.  Whole step lists must match — picks, gains
and remaining traffic — for every peer group.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.offload import (
    OffloadEstimator,
    PeerGroups,
    greedy_expansion,
    greedy_reachability,
)
from repro.experiments.mega import draw_traffic, greedy_coverage
from repro.sim.megatopo import build_mega_world
from repro.sim.offload_batch import build_offload_views
from repro.sim.offload_world import build_offload_world
from repro.sim.scenarios import mega_preset_config, offload_preset_config
from tests.reference import greedy as reference

SEEDS = range(32)
GROUPS = (1, 2, 3, 4)


def _assert_expansions_match(preset: str) -> None:
    base = offload_preset_config(preset)
    views = build_offload_views([replace(base, seed=s) for s in SEEDS])
    for view in views:
        groups = PeerGroups.build(view)
        estimator = OffloadEstimator(view, groups)
        for group in GROUPS:
            assert greedy_expansion(estimator, group) == (
                reference.greedy_expansion(groups, group)
            ), (view.config.seed, group)


class TestGreedyExpansionOracle:
    def test_small_views_all_groups(self):
        _assert_expansions_match("small")


class TestPaperScaleGreedyOracle:
    def test_paper65_views_all_groups(self):
        _assert_expansions_match("paper65")


class TestReachabilityOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_graph_built_small_worlds(self, seed):
        world = build_offload_world(
            replace(offload_preset_config("small"), seed=seed)
        )
        groups = PeerGroups.build(world)
        for group in GROUPS:
            assert greedy_reachability(world, groups, group) == (
                reference.greedy_reachability(groups, group)
            ), group


class TestMegaCoverageOracle:
    @pytest.mark.parametrize("world_seed", (0, 1))
    def test_mega_smoke_worlds(self, world_seed):
        world = build_mega_world(
            replace(mega_preset_config("mega-smoke"), seed=world_seed)
        )
        for traffic_seed in (0, 1, 2):
            traffic = draw_traffic(world, traffic_seed, bend_rank=20_000)
            for depth in (4, 8, 16, world.ixp_count):
                assert greedy_coverage(world, traffic, depth) == (
                    reference.greedy_coverage(world, traffic, depth)
                ), (traffic_seed, depth)

    def test_zero_traffic_stops_before_the_first_pick(self):
        world = build_mega_world(mega_preset_config("mega-smoke"))
        traffic = np.zeros(len(world))
        assert greedy_coverage(world, traffic, 8) == ([], [])
