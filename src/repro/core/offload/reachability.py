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
from typing import Iterable

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


class _AddressMatrix:
    """Per-group (IXP × all-AS) cone CSRs plus the address-space vector."""

    def __init__(self, world: OffloadWorld, groups: PeerGroups) -> None:
        self.world = world
        self.groups = groups
        self.members = world.member_arrays()
        self.space = np.asarray(world.address_space, dtype=float)
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def rows(self, group: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._rows.get(group)
        if cached is None:
            cone_indptr, cone_indices = self.world.member_all_cones()
            cached = self._rows[group] = cone_rows(
                self.members, self.groups.member_mask(group),
                cone_indptr, cone_indices, self.space.size,
            )
        return cached

    def combined_mask(self, ixps: Iterable[str], group: int) -> np.ndarray:
        """Coverage of the requested IXPs."""
        indptr, indices = self.rows(group)
        combined = np.zeros(self.space.size, dtype=bool)
        for acronym in ixps:
            row = self.members.row_of(acronym)
            combined[indices[indptr[row]:indptr[row + 1]]] = True
        return combined


def total_address_space(world: OffloadWorld) -> float:
    """All announced addresses: the zero-IXP baseline (~2.6 B)."""
    return world.total_address_space()


def reachable_via_peering(
    world: OffloadWorld,
    groups: PeerGroups,
    ixps: Iterable[str],
    group: int,
) -> float:
    """Addresses covered by the cones of reachable group members."""
    matrices = _AddressMatrix(world, groups)
    combined = matrices.combined_mask(ixps, group)
    return float(matrices.space[combined].sum())


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
    matrices = _AddressMatrix(world, groups)
    candidates = matrices.members.ixps
    limit = len(candidates) if max_ixps is None else min(max_ixps, len(candidates))
    if limit <= 0:
        raise ConfigurationError("max_ixps must be positive")
    indptr, indices = matrices.rows(group)
    total = float(matrices.space.sum())
    steps: list[ReachabilityStep] = []
    for rank, best, covered in greedy_cover_rows(
        indptr, indices, matrices.space, limit
    ):
        remaining = total - float(matrices.space[covered].sum())
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
