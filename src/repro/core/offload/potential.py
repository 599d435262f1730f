"""The offload-potential estimator (Figures 5–7).

The estimator answers: *if the studied network could peer at these IXPs
with this peer group, how much transit traffic would move off its
providers?*  Offloadability is customer-cone membership: a contributing
network's traffic shifts when some reachable peer carries it in its cone
(Section 4.2's "fully shifting to remote peering the traffic that the
networks of this peer group and their customer cones contribute").

Masks, rankings and the greedy expansion read the world only through
its member arrays (:class:`~repro.sim.offload_world.MemberArrays`) and
the traffic matrix, so the graph-built world and the trial-batch view
take one path; only Figure 6's decomposition needs the graph world's
AS paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.offload.bitsets import cone_rows
from repro.core.offload.peergroups import PeerGroups
from repro.errors import ConfigurationError
from repro.sim.offload_world import OffloadWorld, gather_runs
from repro.types import ASN, NetworkKind


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
        self._transient: dict[str, np.ndarray] | None = None

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

    def _transient_arrays(self) -> dict[str, np.ndarray]:
        """Per-AS transient traffic, from the AS paths of every flow.

        One pass collects (hop, contributor) pairs; the per-hop sums are
        then two weighted bincounts instead of ~100k scalar additions.
        """
        if self._transient is not None:
            return self._transient
        world = self.world
        size = len(world.graph)
        index = {asn: i for i, asn in enumerate(world.graph.asns())}
        hop_rows: list[int] = []
        contrib_rows: list[int] = []
        for contrib_idx, asn in enumerate(world.contributing):
            path = world.inbound_paths.get(asn)
            if path is None:
                continue
            intermediaries = path.intermediaries()
            hop_rows.extend(index[hop] for hop in intermediaries)
            contrib_rows.extend([contrib_idx] * len(intermediaries))
        hops = np.asarray(hop_rows, dtype=np.intp)
        contribs = np.asarray(contrib_rows, dtype=np.intp)
        transient_in = np.bincount(
            hops, weights=world.matrix.inbound_bps[contribs], minlength=size
        ).astype(float)
        transient_out = np.bincount(
            hops, weights=world.matrix.outbound_bps[contribs], minlength=size
        ).astype(float)
        self._transient = {
            "in": transient_in,
            "out": transient_out,
            "_index": index,  # type: ignore[dict-item]
        }
        return self._transient

    def contributor_share(self, asn: ASN) -> ContributorShare:
        """Traffic decomposition of one candidate peer (Figure 6 row)."""
        world = self.world
        arrays = self._transient_arrays()
        index: dict[ASN, int] = arrays["_index"]  # type: ignore[assignment]
        contrib_idx = world.contributing_index(asn)
        origin = destination = 0.0
        if contrib_idx is not None:
            origin = float(world.matrix.inbound_bps[contrib_idx])
            destination = float(world.matrix.outbound_bps[contrib_idx])
        hop_idx = index[asn]
        asys = world.graph.get(asn)
        return ContributorShare(
            asn=asn,
            name=asys.name,
            kind=asys.kind,
            origin_bps=origin,
            destination_bps=destination,
            transient_in_bps=float(arrays["in"][hop_idx]),
            transient_out_bps=float(arrays["out"][hop_idx]),
        )

    def top_contributors(
        self, group: int = 4, top: int = 30, ixps: Iterable[str] | None = None
    ) -> list[ContributorShare]:
        """The top contributors to the offload potential (Figure 6)."""
        reached = list(ixps) if ixps is not None else self.reachable_ixps()
        members: set[ASN] = set()
        for acronym in reached:
            members |= self.groups.ixp_group_members(acronym, group)
        shares = [self.contributor_share(asn) for asn in members]
        shares.sort(key=lambda s: (-s.total_bps, s.asn))
        return shares[:top]
