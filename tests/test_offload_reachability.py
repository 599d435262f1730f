"""The Figure 10 generalized reachability metric."""

import numpy as np
import pytest

from repro.core.offload.reachability import (
    greedy_reachability,
    total_address_space,
)
from repro.errors import ConfigurationError


class TestBaseline:
    def test_total_matches_config_target(self, small_offload_world):
        total = total_address_space(small_offload_world)
        assert total == pytest.approx(
            small_offload_world.config.total_address_space, rel=0.01
        )

    def test_big_eyeballs_hold_most_space(self, small_offload_world,
                                          small_reference_world):
        """The reference world names the big eyeballs; the product's
        space array gives them most of the space."""
        world = small_offload_world
        big = sorted(small_reference_world.big_eyeballs)
        assert len(big) == world.config.big_eyeball_count == 30
        rows = np.searchsorted(world.as_level().asns, big)
        assert world.address_space[rows].sum() > (
            0.5 * total_address_space(world)
        )


class TestReachability:
    def test_greedy_monotone_decreasing(self, small_offload_world, small_groups):
        steps = greedy_reachability(small_offload_world, small_groups, 4,
                                    max_ixps=8)
        remaining = [s.remaining_addresses for s in steps]
        assert remaining == sorted(remaining, reverse=True)
        assert all(s.remaining_billions == s.remaining_addresses / 1e9
                   for s in steps)

    def test_first_step_cuts_deep(self, small_offload_world, small_groups):
        """Figure 10's signature: the first IXP removes a large share of
        the transit-only address space (2.6 B -> ~1 B in the paper)."""
        total = total_address_space(small_offload_world)
        steps = greedy_reachability(small_offload_world, small_groups, 4,
                                    max_ixps=1)
        assert steps[0].remaining_addresses < 0.8 * total

    def test_floor_never_reaches_zero(self, small_offload_world, small_groups):
        """Tier-1-only networks stay transit-only forever."""
        steps = greedy_reachability(small_offload_world, small_groups, 4)
        assert steps[-1].remaining_addresses > 0

    def test_invalid_max(self, small_offload_world, small_groups):
        with pytest.raises(ConfigurationError):
            greedy_reachability(small_offload_world, small_groups, 4,
                                max_ixps=0)
