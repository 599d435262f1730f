"""The generalized reachability metric of Figure 10.

To show diminishing marginal IXP utility independently of RedIRIS's
traffic, the paper switches the metric to *the number of IP interfaces
reachable only through transit providers*: ~2.6 billion addresses sit
behind the transit hierarchy, and reaching IXPs moves the cones of their
members (per peer group) into peering reach.

Like the traffic-side estimator, the implementation builds one cone CSR
per peer group from the world's member arrays — here over *all* ASes
(:meth:`~repro.sim.offload_world.OffloadWorld.member_all_cones`), since
the metric counts every announced address, not just the contributing
networks' — and answers coverage queries with masked reductions over the
world's per-AS address-space array.  No AS graph is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.offload.bitsets import cone_rows, greedy_cover_rows
from repro.core.offload.peergroups import PeerGroups
from repro.errors import ConfigurationError
from repro.sim.offload_world import OffloadWorld


@dataclass(frozen=True, slots=True)
class ReachabilityStep:
    """One greedy step of the Figure 10 expansion."""

    rank: int
    ixp: str
    remaining_addresses: float

    @property
    def remaining_billions(self) -> float:
        """Remaining transit-only addresses, in billions (Figure 10 y-axis)."""
        return self.remaining_addresses / 1e9


def total_address_space(world: OffloadWorld) -> float:
    """All announced addresses: the zero-IXP baseline (~2.6 B)."""
    return world.total_address_space()


def greedy_reachability(
    world: OffloadWorld,
    groups: PeerGroups,
    group: int,
    max_ixps: int | None = None,
) -> list[ReachabilityStep]:
    """Greedy expansion minimising transit-only reachable addresses.

    Mirrors Figure 10: at each step add the IXP whose members' cones cover
    the most not-yet-covered address space (the shared set-cover kernel,
    ties to the alphabetically first IXP).
    """
    members = world.member_arrays()
    space = np.asarray(world.address_space, dtype=float)
    candidates = members.ixps
    limit = len(candidates) if max_ixps is None else min(max_ixps, len(candidates))
    if limit <= 0:
        raise ConfigurationError("max_ixps must be positive")
    cone_indptr, cone_indices = world.member_all_cones()
    indptr, indices = cone_rows(
        members, groups.member_mask(group), cone_indptr, cone_indices,
        space.size,
    )
    total = float(space.sum())
    steps: list[ReachabilityStep] = []
    for rank, best, covered in greedy_cover_rows(indptr, indices, space, limit):
        remaining = total - float(space[covered].sum())
        fresh_gain = (
            (total - remaining) if not steps
            else steps[-1].remaining_addresses - remaining
        )
        steps.append(
            ReachabilityStep(
                rank=rank,
                ixp=candidates[best],
                remaining_addresses=remaining,
            )
        )
        if fresh_gain <= 0:
            break
    return steps
