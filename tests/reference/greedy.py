"""The dense float32 greedy expansions the sparse set-cover kernel replaced.

Oracles for ``tests/test_greedy_oracle.py``.  They share no code with
:func:`repro.core.offload.bitsets.greedy_cover_rows` or
:func:`~repro.core.offload.bitsets.cone_rows`: each IXP row is a dense
boolean mask assembled member by member under the per-candidate group
rule, every rank's gains are one float32 matrix-vector product, and the
mega expansion is the per-exchange Python loop.  The reported numbers
are float64 masked sums over the coverage, exactly as in the product,
so whole step lists compare equal.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.offload.greedy import GreedyStep
from repro.core.offload.peergroups import PeerGroups
from repro.core.offload.reachability import ReachabilityStep
from repro.sim.megatopo import MegaWorld
from repro.sim.offload_world import POLICY_CODES
from repro.types import PeeringPolicy


def greedy_cover_rows(
    bitset: np.ndarray,
    gain_matrix: np.ndarray,
    uncovered: np.ndarray,
    limit: int,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Greedy set-cover order over a cone bitset.

    Yields ``(rank, row, covered)`` per step: ``row`` is the first (i.e.
    lowest-index — ties resolve to the first row, which is alphabetical
    for acronym-sorted matrices) argmax of ``gain_matrix @ uncovered``
    among the still-active rows; ``covered`` is the running column
    coverage after adding it.  ``uncovered`` is zeroed in place on the
    chosen row's columns (incremental coverage), so callers pass a
    selection-grade working copy.  Stops after ``limit`` steps or when no
    active row remains; callers ``break`` on their own no-gain condition.
    """
    covered = np.zeros(bitset.shape[1], dtype=bool)
    active = np.ones(bitset.shape[0], dtype=bool)
    for rank in range(1, limit + 1):
        if not active.any():
            return
        gains = gain_matrix @ uncovered
        gains[~active] = -np.inf
        best = int(np.argmax(gains))
        row = bitset[best]
        covered |= row
        uncovered[row] = 0
        active[best] = False
        yield rank, best, covered


def group_members(groups: PeerGroups, group: int) -> set[int]:
    """The per-candidate group rule, from the candidate sets and policies."""
    members = groups.world.member_arrays()
    policy_of = dict(zip(members.asns.tolist(), members.policy.tolist()))
    admitted = set()
    for asn in sorted(groups.candidates):
        policy = POLICY_CODES[policy_of[asn]]
        if group == 4:
            ok = True
        elif group == 3:
            ok = policy in (PeeringPolicy.OPEN, PeeringPolicy.SELECTIVE)
        elif group == 2:
            ok = policy is PeeringPolicy.OPEN or asn in groups.top_selective
        else:
            ok = policy is PeeringPolicy.OPEN
        if ok:
            admitted.add(asn)
    return admitted


def dense_bitset(
    groups: PeerGroups, group: int, cone_of, ncols: int
) -> np.ndarray:
    """(IXP × column) coverage, one member's cone at a time.

    Rows follow the sorted acronyms; ``cone_of(asn)`` gives a member's
    cone as column indices.
    """
    memberships = groups.world.memberships
    admitted = group_members(groups, group)
    bitset = np.zeros((len(memberships), ncols), dtype=bool)
    for row, acronym in enumerate(sorted(memberships)):
        for asn in sorted(memberships[acronym] & admitted):
            bitset[row, cone_of(asn)] = True
    return bitset


def contributing_cone(world):
    """A member's cone over contributing indices, from the member arrays."""
    members = world.member_arrays()

    def cone_of(asn: int) -> np.ndarray:
        k = int(np.searchsorted(members.asns, asn))
        return members.cone_indices[
            members.cone_indptr[k]:members.cone_indptr[k + 1]
        ]

    return cone_of


def greedy_expansion(
    groups: PeerGroups, group: int, max_ixps: int | None = None
) -> list[GreedyStep]:
    """Figures 8/9's expansion on the dense float32 bitset."""
    world = groups.world
    matrix = world.matrix
    total_in = float(matrix.inbound_bps.sum())
    total_out = float(matrix.outbound_bps.sum())
    candidates = sorted(world.memberships)
    limit = len(candidates) if max_ixps is None else min(
        max_ixps, len(candidates)
    )
    bitset = dense_bitset(
        groups, group, contributing_cone(world), len(world.contributing)
    )
    gain_matrix = bitset.astype(np.float32)
    uncovered_total = (matrix.inbound_bps + matrix.outbound_bps).astype(
        np.float32
    )
    offl_in = offl_out = 0.0
    steps: list[GreedyStep] = []
    for rank, best, covered in greedy_cover_rows(
        bitset, gain_matrix, uncovered_total, limit
    ):
        previous_in, previous_out = offl_in, offl_out
        offl_in = float(matrix.inbound_bps[covered].sum())
        offl_out = float(matrix.outbound_bps[covered].sum())
        gain_in = offl_in - previous_in
        gain_out = offl_out - previous_out
        steps.append(
            GreedyStep(
                rank=rank,
                ixp=candidates[best],
                gained_inbound_bps=gain_in,
                gained_outbound_bps=gain_out,
                remaining_inbound_bps=total_in - offl_in,
                remaining_outbound_bps=total_out - offl_out,
            )
        )
        if gain_in + gain_out <= 0:
            break
    return steps


def greedy_reachability(
    groups: PeerGroups, group: int, max_ixps: int | None = None
) -> list[ReachabilityStep]:
    """Figure 10's expansion on the dense float32 (IXP × all-AS) bitset."""
    world = groups.world
    asns = world.graph.asns()
    space = np.array(
        [world.graph.get(a).address_space for a in asns], dtype=float
    )
    candidates = sorted(world.memberships)
    limit = len(candidates) if max_ixps is None else min(
        max_ixps, len(candidates)
    )
    bitset = dense_bitset(groups, group, world.cone_all_indices, len(asns))
    total = float(space.sum())
    steps: list[ReachabilityStep] = []
    for rank, best, covered in greedy_cover_rows(
        bitset, bitset.astype(np.float32), space.astype(np.float32), limit
    ):
        remaining = total - float(space[covered].sum())
        fresh_gain = (
            (total - remaining) if not steps
            else steps[-1].remaining_addresses - remaining
        )
        steps.append(
            ReachabilityStep(
                rank=rank, ixp=candidates[best], remaining_addresses=remaining,
            )
        )
        if fresh_gain <= 0:
            break
    return steps


def greedy_coverage(
    world: MegaWorld, traffic: np.ndarray, max_ixps: int
) -> tuple[list[int], list[float]]:
    """Greedy IXP picks by marginal covered-traffic gain.

    Coverage is membership-level (peering at an exchange reaches the
    members' own prefixes; the cone-propagated mask saturates at mega
    densities — see ``MegaWorld.membership_masks``).  Ties break toward
    the lower catalog index, so the expansion is deterministic.
    Returns ``(picked ixp indices, marginal gains)``.
    """
    covered = np.zeros(len(world), dtype=bool)
    picked: list[int] = []
    gains: list[float] = []
    members = [world.members_of(j) for j in range(world.ixp_count)]
    for _ in range(min(max_ixps, world.ixp_count)):
        best_j, best_gain = -1, -1.0
        for j in range(world.ixp_count):
            if j in picked:
                continue
            m = members[j]
            gain = float(traffic[m[~covered[m]]].sum())
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_j < 0 or best_gain <= 0.0:
            break
        picked.append(best_j)
        gains.append(best_gain)
        covered[members[best_j]] = True
    return picked, gains
