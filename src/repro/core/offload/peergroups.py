"""Peer-group construction with the paper's exclusion rules (Section 4.2).

Candidates are the members of the 65 reachable IXPs minus networks highly
unlikely to peer with the studied NREN:

1. its transit providers (providers do not peer with customers — and the
   tier-1s have no providers of their own, so no transitive rule is
   needed);
2. members of the two IXPs it already belongs to (CATNIX, ESpanix) — this
   sweeps in every other tier-1;
3. fellow GÉANT members (already cheaply interconnected).

The four peer groups then slice candidates by PeeringDB policy:
group 1 = open, group 2 = open + the 10 selective networks with the
largest individual offload potential, group 3 = open + selective,
group 4 = everything.

Everything here is gathers over the world's
:meth:`~repro.sim.offload_world.OffloadWorld.member_arrays` (membership
table, member policy codes, member cones), which both world types
expose: the exclusions are masks over the members, the top-selective
ranking reduces the cone index arrays, and :meth:`PeerGroups.member_mask`
is what the estimators read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.offload_world import POLICY_CODES, OffloadWorld
from repro.types import ASN, PeeringPolicy

#: Group numbering follows the paper.
ALL_GROUPS = (1, 2, 3, 4)

GROUP_LABELS = {
    1: "all open policies",
    2: "all open and top 10 selective policies",
    3: "all open and selective policies",
    4: "all policies",
}

#: How many selective networks group 2 adds on top of group 1.
TOP_SELECTIVE_COUNT = 10

_OPEN = POLICY_CODES.index(PeeringPolicy.OPEN)
_SELECTIVE = POLICY_CODES.index(PeeringPolicy.SELECTIVE)
_RESTRICTIVE = POLICY_CODES.index(PeeringPolicy.RESTRICTIVE)


def _check_group(group: int) -> None:
    if group not in ALL_GROUPS:
        raise ConfigurationError(f"unknown peer group {group}")


def _isin(asns: np.ndarray, members: frozenset[ASN]) -> np.ndarray:
    """Mask of ``asns`` entries that are in ``members``."""
    return np.isin(asns, np.array(sorted(members), dtype=np.int64))


@dataclass
class PeerGroups:
    """Candidate peers of the studied network, sliced into the 4 groups.

    Everything is computed over the world's
    :meth:`~repro.sim.offload_world.OffloadWorld.member_arrays`: the
    candidates are IXP members, and :meth:`member_mask` — what the
    estimators read — is a gather over the member policy codes.
    """

    world: OffloadWorld
    candidates: frozenset[ASN] = field(default_factory=frozenset)
    top_selective: frozenset[ASN] = field(default_factory=frozenset)

    @classmethod
    def build(
        cls,
        world: OffloadWorld,
        exclude_transit_providers: bool = True,
        exclude_home_ixp_members: bool = True,
        exclude_geant_club: bool = True,
    ) -> "PeerGroups":
        """Apply the exclusion rules and rank the selective candidates.

        The three rule switches exist for ablation: the paper argues each
        exclusion removes networks "highly unlikely to peer" — disabling
        one shows how much potential that rule conservatively forgoes.
        """
        members = world.member_arrays()
        excluded = [world.rediris]
        if exclude_transit_providers:  # rule 1
            excluded.extend(world.transit_providers)
        if exclude_geant_club:  # rule 3
            excluded.extend([world.geant, *world.nrens])
        keep = ~np.isin(members.asns, excluded)
        if exclude_home_ixp_members:  # rule 2
            for acronym in ("CATNIX", "ESpanix"):
                if acronym in members.ixps:
                    keep[members.members_at(members.row_of(acronym))] = False
        candidates = np.flatnonzero(keep)
        top = _rank_top_selective(world, candidates)
        return cls(
            world=world,
            candidates=frozenset(members.asns[candidates].tolist()),
            top_selective=frozenset(members.asns[top].tolist()),
        )

    def restrict(self, allowed: frozenset[ASN]) -> "PeerGroups":
        """The groups limited to candidates in ``allowed``.

        This is how a *measured* peer map enters the offload arithmetic:
        the joint detection→offload study passes the set of members its
        detection campaign called remote, so every downstream estimate is
        computed over what an operator would actually see rather than the
        oracle candidate set.  ``top_selective`` is intersected, not
        re-ranked — the restriction models missing knowledge of peers, not
        a different ranking rule.
        """
        return PeerGroups(
            world=self.world,
            candidates=self.candidates & allowed,
            top_selective=self.top_selective & allowed,
        )

    # -- group membership ---------------------------------------------------------

    def member_mask(self, group: int) -> np.ndarray:
        """Which of the world's IXP members belong to peer group ``group``.

        A boolean mask over ``world.member_arrays().asns``, derived from
        :attr:`candidates` and :attr:`top_selective` (so restricted groups
        take the same path).
        """
        _check_group(group)
        members = self.world.member_arrays()
        mask = _isin(members.asns, self.candidates)
        if group == 4:
            return mask
        policy = members.policy
        if group == 3:
            return mask & (policy != _RESTRICTIVE)
        admitted = policy == _OPEN
        if group == 2:
            admitted |= _isin(members.asns, self.top_selective)
        return mask & admitted

    def group_members(self, group: int) -> frozenset[ASN]:
        """All candidates in one peer group."""
        asns = self.world.member_arrays().asns
        return frozenset(asns[self.member_mask(group)].tolist())

    def ixp_group_members(self, ixp_acronym: str, group: int) -> frozenset[ASN]:
        """Group members with a membership at one IXP."""
        mask = self.member_mask(group)
        members = self.world.member_arrays()
        seated = members.members_at(members.row_of(ixp_acronym))
        return frozenset(members.asns[seated[mask[seated]]].tolist())

    def candidate_count(self) -> int:
        """Total candidates after exclusions (paper: 2,192)."""
        return len(self.candidates)


def _rank_top_selective(
    world: OffloadWorld, candidates: np.ndarray
) -> np.ndarray:
    """The 10 selective candidates with the largest offload potential.

    ``candidates`` are member indices.  A candidate's individual potential
    is the transit traffic of its customer cone (itself included),
    combined inbound + outbound.  Singleton cones gather their one value;
    larger cones keep one ``np.sum`` each over the cone's index array, so
    the floats (and the ranking) are those of a per-candidate reduction.
    """
    members = world.member_arrays()
    total_bps = world.matrix.total_bps
    selective = candidates[members.policy[candidates] == _SELECTIVE]
    starts = members.cone_indptr[selective]
    lengths = members.cone_indptr[selective + 1] - starts
    potential = np.zeros(selective.size)
    single = lengths == 1
    potential[single] = total_bps[members.cone_indices[starts[single]]]
    for k in np.flatnonzero(lengths > 1).tolist():
        cone = members.cone_indices[starts[k]:starts[k] + lengths[k]]
        potential[k] = total_bps[cone].sum()
    order = np.lexsort((members.asns[selective], -potential))
    return selective[order[:TOP_SELECTIVE_COUNT]]
