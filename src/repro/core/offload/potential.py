"""The offload-potential estimator (Figures 5–7).

The estimator answers: *if the studied network could peer at these IXPs
with this peer group, how much transit traffic would move off its
providers?*  Offloadability is customer-cone membership: a contributing
network's traffic shifts when some reachable peer carries it in its cone
(Section 4.2's "fully shifting to remote peering the traffic that the
networks of this peer group and their customer cones contribute").

Masks, rankings and the greedy expansion read the world only through
its member arrays (:class:`~repro.sim.offload_world.MemberArrays`) and
the traffic matrix.  Figure 6's decomposition follows each contributor's
best route toward the studied network, which :func:`routes_toward`
computes over the world's AS level
(:meth:`~repro.sim.offload_world.OffloadWorld.as_level`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro.core.offload.bitsets import cone_rows
from repro.core.offload.peergroups import PeerGroups
from repro.errors import ConfigurationError
from repro.sim.offload_world import ASLevel, OffloadWorld, gather_runs
from repro.types import ASN, NetworkKind

#: How a route was learned, by :attr:`Routes.kind` code (-1: no route).
ROUTE_KINDS = ("origin", "customer", "peer", "provider")
_ORIGIN, _CUSTOMER, _PEER, _PROVIDER = range(4)


class Routes(NamedTuple):
    """Every AS's best route toward one destination, by AS index.

    ``next_hop[i]`` is the neighbour AS ``i`` forwards to (the
    destination's own is itself), ``length[i]`` the path's AS hops and
    ``kind[i]`` a :data:`ROUTE_KINDS` code; all three are -1 where AS
    ``i`` has no route.
    """

    next_hop: np.ndarray
    length: np.ndarray
    kind: np.ndarray


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal ``keys`` starts."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def routes_toward(level: ASLevel, destination: int) -> Routes:
    """Each AS's best route to AS index ``destination`` (Gao–Rexford).

    Customer routes beat peer routes beat provider routes; within a
    class the shorter path wins, then the lower next-hop ASN (indices
    ascend with ASN).  Only customer routes are exported to providers
    and peers, so a best path climbs, crosses at most one peering and
    descends.  Three level-synchronous passes follow that shape:
    customer routes climb a level at a time, one peer edge leaves a
    customer-routed AS or the destination, and provider routes descend
    a level at a time from every routed AS.  An AS is routed only once
    its next hop is, so no path can loop back through the AS it extends.
    """
    size = level.asns.size
    next_hop = np.full(size, -1, dtype=np.intp)
    length = np.full(size, -1, dtype=np.int64)
    kind = np.full(size, -1, dtype=np.int8)

    def settle(node, via, hops, code) -> None:
        next_hop[node], length[node], kind[node] = via, hops, code

    settle(destination, destination, 0, _ORIGIN)

    up = np.lexsort((level.customer, level.provider))
    customer, provider = level.customer[up], level.provider[up]
    frontier = np.zeros(size, dtype=bool)
    frontier[destination] = True
    hops = 0
    while True:
        hit = np.flatnonzero(frontier[customer] & (length[provider] < 0))
        if not hit.size:
            break
        first = hit[_first_of_runs(provider[hit])]
        hops += 1
        settle(provider[first], customer[first], hops, _CUSTOMER)
        frontier[:] = False
        frontier[provider[first]] = True

    exporter = np.concatenate([level.peers[:, 0], level.peers[:, 1]])
    learner = np.concatenate([level.peers[:, 1], level.peers[:, 0]])
    offered = (length[exporter] >= 0) & (length[learner] < 0)
    exporter, learner = exporter[offered], learner[offered]
    order = np.lexsort((exporter, length[exporter], learner))
    best = order[_first_of_runs(learner[order])]
    settle(learner[best], exporter[best], length[exporter[best]] + 1, _PEER)

    down = np.lexsort((level.provider, level.customer))
    customer, provider = level.customer[down], level.provider[down]
    hops = 0
    while hops <= length.max():
        hit = np.flatnonzero(
            (length[provider] == hops) & (length[customer] < 0)
        )
        first = hit[_first_of_runs(customer[hit])]
        settle(customer[first], provider[first], hops + 1, _PROVIDER)
        hops += 1
    return Routes(next_hop, length, kind)


class _Transient(NamedTuple):
    """Figure 6's per-AS transient traffic, by :class:`ASLevel` index."""

    level: ASLevel
    inbound: np.ndarray
    outbound: np.ndarray


@dataclass(frozen=True, slots=True)
class ContributorShare:
    """Figure 6 row: one top contributor's traffic decomposition."""

    asn: ASN
    name: str
    kind: NetworkKind
    origin_bps: float       # inbound traffic the network itself originates
    destination_bps: float  # outbound traffic it itself terminates
    transient_in_bps: float   # inbound traffic it carries for its cone
    transient_out_bps: float  # outbound traffic it carries for its cone

    @property
    def total_bps(self) -> float:
        """Combined contribution to the offload potential."""
        return (
            self.origin_bps
            + self.destination_bps
            + self.transient_in_bps
            + self.transient_out_bps
        )

    @property
    def endpoint_dominant(self) -> bool:
        """Whether own origin/destination traffic exceeds transient."""
        own = self.origin_bps + self.destination_bps
        transient = self.transient_in_bps + self.transient_out_bps
        return own >= transient


class OffloadEstimator:
    """Offload arithmetic over a built world and its peer groups.

    Everything reads the world's member arrays: a group's members are a
    mask over them (:meth:`PeerGroups.member_mask`), the offloadable
    networks behind a set of reached IXPs are the union of the cones of
    the group members seated there (one gather), and the greedy expansion
    runs over the group's (IXP × contributing) *cone CSR*
    (:meth:`group_rows`; rows sorted by acronym).  Masks, unions and
    traffic sums are index reductions instead of per-member Python loops,
    which is what makes many-seed offload ensembles cheap.
    """

    def __init__(self, world: OffloadWorld, groups: PeerGroups | None = None):
        self.world = world
        self.groups = groups or PeerGroups.build(world)
        self._members = world.member_arrays()
        self._selected: dict[int, np.ndarray] = {}
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._transient: _Transient | None = None

    # -- masks -------------------------------------------------------------------

    def _group_mask(self, group: int) -> np.ndarray:
        cached = self._selected.get(group)
        if cached is None:
            cached = self._selected[group] = self.groups.member_mask(group)
        return cached

    def group_rows(self, group: int) -> tuple[np.ndarray, np.ndarray]:
        """The (IXP × contributing) cone CSR ``(indptr, indices)`` of a group.

        Rows follow :meth:`reachable_ixps` order; each row's contributing
        indices are ascending and distinct.  Built once per group.
        """
        cached = self._rows.get(group)
        if cached is None:
            members = self._members
            cached = self._rows[group] = cone_rows(
                members, self._group_mask(group),
                members.cone_indptr, members.cone_indices,
                len(self.world.contributing),
            )
        return cached

    def mask_for(self, ixps: Iterable[str], group: int) -> np.ndarray:
        """Offloadable mask for a set of reached IXPs."""
        members = self._members
        seated = np.zeros(members.asns.size, dtype=bool)
        selected = self._group_mask(group)
        for acronym in ixps:
            seated[members.members_at(members.row_of(acronym))] = True
        reached = np.flatnonzero(seated & selected)
        starts = members.cone_indptr[reached]
        mask = np.zeros(len(self.world.contributing), dtype=bool)
        mask[gather_runs(
            members.cone_indices, starts,
            members.cone_indptr[reached + 1] - starts,
        )] = True
        return mask

    def ixp_mask(self, ixp_acronym: str, group: int) -> np.ndarray:
        """Offloadable-contributor mask for one IXP and peer group."""
        return self.mask_for([ixp_acronym], group)

    def reachable_ixps(self) -> list[str]:
        """All IXPs in the study's reachable set, sorted."""
        return list(self._members.ixps)

    # -- traffic -------------------------------------------------------------------

    def offload_bps(
        self, ixps: Iterable[str], group: int
    ) -> tuple[float, float]:
        """(inbound, outbound) offloadable traffic for reached IXPs."""
        reached = np.flatnonzero(self.mask_for(ixps, group))
        matrix = self.world.matrix
        return (
            float(matrix.inbound_bps[reached].sum()),
            float(matrix.outbound_bps[reached].sum()),
        )

    def offload_fractions(
        self, ixps: Iterable[str], group: int
    ) -> tuple[float, float]:
        """(inbound, outbound) offload as fractions of the transit traffic."""
        inbound, outbound = self.offload_bps(ixps, group)
        matrix = self.world.matrix
        return (
            inbound / float(matrix.inbound_bps.sum()),
            outbound / float(matrix.outbound_bps.sum()),
        )

    def offloadable_network_count(self, ixps: Iterable[str], group: int) -> int:
        """Networks whose traffic shifts (paper: 12,238 at 65 IXPs/group 4)."""
        return int(self.mask_for(ixps, group).sum())

    def single_ixp_ranking(self, group: int, top: int = 10) -> list[tuple[str, float]]:
        """IXPs ranked by single-IXP offload potential (Figure 7's x-axis)."""
        indptr, indices = self.group_rows(group)
        world_matrix = self.world.matrix
        totals = world_matrix.inbound_bps + world_matrix.outbound_bps
        scored = [
            (acronym, float(totals[indices[start:end]].sum()))
            for acronym, start, end in zip(
                self._members.ixps, indptr[:-1], indptr[1:]
            )
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:top]

    def ranked_offload_rates(
        self, ixps: Iterable[str], group: int, direction: str
    ) -> np.ndarray:
        """Figure 5a's overlay: offloadable per-network rates, rank-sorted."""
        mask = self.mask_for(ixps, group)
        matrix = self.world.matrix
        if direction == "inbound":
            rates = matrix.inbound_bps[mask]
        elif direction == "outbound":
            rates = matrix.outbound_bps[mask]
        else:
            raise ConfigurationError(f"unknown direction {direction!r}")
        return np.sort(rates)[::-1]

    # -- figure 6: contributor decomposition -------------------------------------------

    def _transient_arrays(self) -> _Transient:
        """Per-AS transient traffic, from every contributor's best route.

        Following next-hop pointers gives each contributor's
        intermediaries; the (hop, contributor) pairs go in contributor
        order, so each hop's two weighted bincounts add its contributors'
        rates in that order.
        """
        if self._transient is not None:
            return self._transient
        world = self.world
        level = world.as_level()
        rediris = int(np.searchsorted(level.asns, world.rediris))
        next_hop = routes_toward(level, rediris).next_hop
        hop = next_hop[np.searchsorted(level.asns, world.contributing)]
        owner = np.flatnonzero(hop >= 0)
        hop = hop[owner]
        hop_rows: list[np.ndarray] = []
        owner_rows: list[np.ndarray] = []
        while True:
            inner = np.flatnonzero(hop != rediris)
            if not inner.size:
                break
            hop, owner = hop[inner], owner[inner]
            hop_rows.append(hop)
            owner_rows.append(owner)
            hop = next_hop[hop]
        hops = np.concatenate([np.empty(0, dtype=np.intp), *hop_rows])
        owners = np.concatenate([np.empty(0, dtype=np.intp), *owner_rows])
        order = np.argsort(owners, kind="stable")
        hops, owners = hops[order], owners[order]
        self._transient = _Transient(
            level,
            np.bincount(hops, weights=world.matrix.inbound_bps[owners],
                        minlength=level.asns.size),
            np.bincount(hops, weights=world.matrix.outbound_bps[owners],
                        minlength=level.asns.size),
        )
        return self._transient

    def contributor_share(self, asn: ASN) -> ContributorShare:
        """Traffic decomposition of one candidate peer (Figure 6 row);
        an ASN outside the world raises."""
        world = self.world
        transient = self._transient_arrays()
        asns = transient.level.asns
        hop_idx = int(np.searchsorted(asns, asn))
        if hop_idx == asns.size or asns[hop_idx] != asn:
            raise ConfigurationError(f"unknown ASN {asn}")
        contrib_idx = world.contributing_index(asn)
        origin = destination = 0.0
        if contrib_idx is not None:
            origin = float(world.matrix.inbound_bps[contrib_idx])
            destination = float(world.matrix.outbound_bps[contrib_idx])
        return ContributorShare(
            asn=asn,
            name=transient.level.names[hop_idx],
            kind=transient.level.kinds[hop_idx],
            origin_bps=origin,
            destination_bps=destination,
            transient_in_bps=float(transient.inbound[hop_idx]),
            transient_out_bps=float(transient.outbound[hop_idx]),
        )

    def top_contributors(
        self, group: int = 4, top: int = 30, ixps: Iterable[str] | None = None
    ) -> list[ContributorShare]:
        """The top contributors to the offload potential (Figure 6)."""
        reached = list(ixps) if ixps is not None else self.reachable_ixps()
        members: set[ASN] = set()
        for acronym in reached:
            members |= self.groups.ixp_group_members(acronym, group)
        shares = [self.contributor_share(asn) for asn in sorted(members)]
        shares.sort(key=lambda s: (-s.total_bps, s.asn))
        return shares[:top]
