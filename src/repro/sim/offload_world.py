"""Builder for the offload world: a RedIRIS-like NREN in a ~30k-AS Internet.

Reproduces the Section 4 setting:

* **RedIRIS** buys transit from two tier-1s, peers with GÉANT and a few
  major CDNs, and holds memberships at CATNIX and ESpanix;
* **29,570 contributing networks** exchange transit traffic with RedIRIS,
  with the double-Pareto rank profile of Figure 5a;
* **65 Euro-IX IXPs** have memberships drawn from regional pools so the
  big-European-trio overlap is high while Terremark shares only a few
  dozen (global) members with them;
* customer cones, AS paths, peering policies and address space give the
  offload estimator everything Figures 5–10 consume.

Calibration levers and what they buy:

* ``tier1_only_stub_fraction`` — stubs homed exclusively to tier-1s are
  unreachable via peering (tier-1s sit at ESpanix and are excluded), which
  caps the maximum offload fraction like the paper's ~25–33%;
* ``member_tier2_fraction`` — how many transit networks show up at IXPs,
  which controls both the 12,238-network offloadable set and Figure 10's
  drop from 2.6 B to ~1 B addresses after the first IXP;
* the CDN rank list — places the named content analogues among the top
  transit contributors, making Figure 6's top-30 content-heavy.

Draw order
----------
The builder draws every stage's arrays from a dedicated child stream in
a fixed order, then materializes each drawn tier as struct-of-arrays and
inserts networks and edges through the bulk
:class:`~repro.bgp.relationships.ASGraph` APIs.  Two realizers consume
these draws:

* the trial-batched builder of :mod:`repro.sim.offload_batch` inherits
  this module's draw-bearing stages unchanged and stacks k seeds' worlds
  over shared static tables for ``StudyConfig.trial_batch`` runs — same
  streams, same order, once per seed, so a batched build is bit-identical
  to k single builds;
* the one-network-at-a-time reference in
  ``tests/reference/offload_world.py`` inserts through the fully checked
  ``add_as``/``add_customer_provider`` calls and must build bit-identical
  worlds (``tests/test_offload_world_engines.py``).

The per-realizer stream inventory is *generated*, not hand-maintained:
``repro lint --draw-programs`` extracts it statically, and the
``draw-engine-parity`` lint rule fails the build if this builder's and
the batched builder's streams ever diverge.  What no extractor can read
off is the draw order *within* each stream — that contract stays
documented here:

* ``(seed, "offload", "giants")`` — provider keys ``U(G, T)``; each giant
  takes the two lowest-key tier-1s of its row.
* ``(seed, "offload", "tier2s")`` — region uniforms ``U(n2)`` (inverse-CDF
  over the regional weights), policy uniforms ``U(n2)``, uplink-count
  uniforms ``U(n2, 2)``, uplink keys ``U(n2, T)`` (lowest ``count`` keys).
* ``(seed, "offload", "stubs")`` — region ``U(n)``, kind ``U(n)``,
  tier-1-only ``U(n)``, IXP-goer ``U(n)``, policy ``U(n)``, big-eyeball
  slot keys ``U(n)`` (the ``big_eyeball_count`` lowest keys become
  eyeballs), provider-count ``U(n, 2)``, homing-pool ``U(n)``, propensity
  ``U(n)``; then per category, in this order: eyeball provider keys
  ``U(B, T)``, eyeball mega-homing ``U(B)``, eyeball mega picks ``U(B)``,
  tier-1-only provider keys ``U(K1, T)``, and normal-stub provider picks
  ``U(K2, 3)`` (index = ``floor(u * len(pool))`` into the mega / regional /
  global tier-2 pool selected by the homing-pool uniform).
* ``(seed, "traffic")`` — the Figure 5a rank-profile pipeline (unchanged
  from the start: totals, permutation, in/out split, head pinning).
* ``(seed, "offload", "globals")`` — which member tier-2s are global
  IXP-goers; ``(seed, "membership", acronym)`` — one stream per IXP whose
  member draw is a weighted sample without replacement realized as
  exponential-key (Efraimidis–Spirakis) top-``k`` selection.
* ``(seed, "offload", "addrspace")`` — access-network multipliers
  ``U(10, 80)`` then tier-1/transit multipliers ``U(4, 40)`` (each in
  ascending-ASN order), then big-eyeball log-normal share weights.
"""

from __future__ import annotations

import bisect
import gc
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.bgp.cone import customer_cone
from repro.bgp.relationships import ASGraph
from repro.bgp.routing import ASPath, RouteComputation
from repro.bgp.table import ReversedPathTable
from repro.errors import ConfigurationError, TopologyError
from repro.ixp.euroix import EuroIXSpec, euroix_catalog
from repro.netflow.collector import FlowCollector
from repro.netflow.traffic import (
    TrafficMatrix,
    TrafficMatrixConfig,
    rank_profile_totals,
    split_totals_by_kind,
)
from repro.rand import child_rng, weighted_top_k
from repro.types import ASN, NetworkKind, PeeringPolicy

_REGIONS = ("europe", "north_america", "latin_america", "asia", "africa")
_STUB_REGION_WEIGHTS = (0.40, 0.20, 0.15, 0.17, 0.08)

#: Names for the content/CDN giants of Figure 6 (Microsoft/Yahoo/CDN
#: analogues).  Policies make the peer-group story work: none are open, so
#: peer group 1 misses them; the selective ones power group 2's jump.
_GIANTS: tuple[tuple[str, PeeringPolicy], ...] = (
    ("macrosoft", PeeringPolicy.SELECTIVE),
    ("yahu", PeeringPolicy.SELECTIVE),
    ("akamight", PeeringPolicy.SELECTIVE),
    ("goggle", PeeringPolicy.RESTRICTIVE),
    ("limeligth", PeeringPolicy.SELECTIVE),
    ("cachefly-like", PeeringPolicy.SELECTIVE),
    ("netfilm", PeeringPolicy.SELECTIVE),
    ("fastlane-cdn", PeeringPolicy.SELECTIVE),
    ("edgecastle", PeeringPolicy.SELECTIVE),
    ("cloudfriend", PeeringPolicy.SELECTIVE),
    ("bookface", PeeringPolicy.RESTRICTIVE),
    ("tweeter", PeeringPolicy.SELECTIVE),
    ("streamworks", PeeringPolicy.SELECTIVE),
    ("photopile", PeeringPolicy.SELECTIVE),
    ("gamegrid", PeeringPolicy.SELECTIVE),
    ("adnexus", PeeringPolicy.SELECTIVE),
    ("vidvault", PeeringPolicy.SELECTIVE),
    ("newsriver", PeeringPolicy.SELECTIVE),
    ("mapmaker", PeeringPolicy.RESTRICTIVE),
    ("storagebarn", PeeringPolicy.SELECTIVE),
    ("musicmesh", PeeringPolicy.SELECTIVE),
    ("softmirror", PeeringPolicy.SELECTIVE),
    ("pixelpark", PeeringPolicy.SELECTIVE),
    ("webwharf", PeeringPolicy.SELECTIVE),
    ("datadray", PeeringPolicy.SELECTIVE),
    ("flixfarm", PeeringPolicy.SELECTIVE),
)

#: Transit-rank slots reserved for the giants (1-based ranks in the
#: combined in+out distribution).  Concentrated in the top ~105 so that a
#: majority of Figure 6's top-30 offload contributors are the
#: endpoint-dominant content networks (as in the paper), while together
#: they hold ~14% of the transit traffic — low enough to keep the maximum
#: offload near the paper's 25–33% once the rest of the head is pinned to
#: unreachable eyeballs.
_GIANT_RANKS = (
    4, 6, 8, 10, 12, 14, 16, 18, 21, 24, 27, 30, 33, 36, 39, 42,
    45, 48, 51, 54, 60, 67, 75, 84, 94, 105,
)

#: Regional weight of RedIRIS traffic: a Spanish NREN exchanges most of its
#: transit traffic with European and North American networks, a meaningful
#: share with Latin America, and little with Asia/Africa.
_REGION_TRAFFIC_MULTIPLIER = {
    "europe": 1.35,
    "north_america": 1.15,
    "latin_america": 0.85,
    "asia": 0.45,
    "africa": 0.25,
}

#: IXPs whose membership pools span several regions.  Terremark (Miami)
#: hosts the South/Central-American carriers the paper highlights;
#: CoreSite (Los Angeles) fronts trans-Pacific traffic.
_IXP_POOL_OVERRIDES: dict[str, tuple[str, ...]] = {
    "Terremark": ("north_america", "latin_america"),
    "CoreSite": ("north_america", "asia"),
}

#: Stub business-type mix (percent slots, drawn by ``floor(u * 100)``).
_STUB_KINDS = (
    [NetworkKind.ACCESS] * 40 + [NetworkKind.HOSTING] * 18
    + [NetworkKind.CONTENT] * 14 + [NetworkKind.ENTERPRISE] * 22
    + [NetworkKind.CDN] * 2 + [NetworkKind.TRANSIT] * 4
)

#: The policy behind each code of a ``policy_codes`` array (and of
#: :attr:`MemberArrays.policy`).
POLICY_CODES = (
    PeeringPolicy.OPEN, PeeringPolicy.SELECTIVE, PeeringPolicy.RESTRICTIVE,
)
_OPEN, _SELECTIVE, _RESTRICTIVE = range(3)
_POLICY_CODE = {policy: code for code, policy in enumerate(POLICY_CODES)}

#: Tier-2 policy mix (percent slots), as policy codes.
_TIER2_POLICY_CODES = np.repeat(
    np.array([_OPEN, _SELECTIVE, _RESTRICTIVE], dtype=np.int8), [62, 26, 12]
)

@dataclass(frozen=True, slots=True)
class OffloadWorldConfig:
    """Size and calibration knobs for the offload world."""

    seed: int = 42
    contributing_count: int = 29_570
    tier1_count: int = 10
    tier2_count: int = 420
    nren_count: int = 36
    days: int = 28
    traffic: TrafficMatrixConfig | None = None
    #: Stubs homed only to tier-1 providers (never offloadable).
    tier1_only_stub_fraction: float = 0.34
    #: Transit (tier-2) networks that appear at IXPs at all.
    member_tier2_fraction: float = 0.55
    #: Stubs that are IXP-goers (hosting/content/access at exchanges).
    ixpgoer_stub_fraction: float = 0.115
    #: Top transit ranks (outside the giants' slots) pinned onto tier-1-only
    #: eyeballs: the traffic head a peering strategy cannot touch.
    head_pin_count: int = 280
    #: Target total announced IPv4 space (Figure 10's 2.6 B).
    total_address_space: float = 2.6e9
    #: Global mega-carriers: the biggest tier-2s, present at every IXP,
    #: whose worldwide cones drive Figure 10's steep first-IXP drop.
    mega_carrier_count: int = 30
    #: Large eyeball networks that hold most of the address space.
    big_eyeball_count: int = 120
    #: Share of all announced space held by the big eyeballs.
    big_eyeball_space_share: float = 0.68
    #: Probability a big eyeball buys from a mega-carrier (else tier-1-only).
    big_eyeball_mega_homed: float = 0.75
    #: Not settable (passing it raises ``TypeError``).  It stays the last
    #: field so this config's repr — embedded in every offload, economics
    #: and joint trial-spec repr that study fingerprints hash — is
    #: unchanged and stored artifacts stay addressable.
    engine: str = field(default="vectorized", init=False)

    def __post_init__(self) -> None:
        giants = len(_GIANTS)
        if self.contributing_count <= self.tier2_count + giants + 200:
            raise ConfigurationError("contributing_count too small")
        if self.tier1_count < 2:
            raise ConfigurationError("need at least two tier-1s for RedIRIS")
        for name in (
            "tier1_only_stub_fraction",
            "member_tier2_fraction",
            "ixpgoer_stub_fraction",
            "big_eyeball_mega_homed",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        # The big eyeballs are scaled to share / (1 - share) of the rest.
        if not 0.0 <= self.big_eyeball_space_share < 1.0:
            raise ConfigurationError(
                "big_eyeball_space_share must be in [0, 1)"
            )


def gather_runs(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``values[s:s + n]`` for every ``(s, n)`` pair, concatenated.

    One gather for many CSR segments: the index array is a running sum of
    unit steps that jumps at each run boundary.
    """
    keep = np.flatnonzero(lengths)
    starts, lengths = starts[keep], lengths[keep]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    steps = np.ones(total, dtype=np.intp)
    if total:
        steps[0] = starts[0]
        steps[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return values[np.cumsum(steps, out=steps)]


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` through one sort (numpy's hash-based
    ``unique`` is several times slower on these integer arrays)."""
    ordered = np.sort(values)
    distinct = np.ones(ordered.size, dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]
    return ordered[distinct]


def csr_indptr(lengths: np.ndarray) -> np.ndarray:
    """The ``int64`` row pointer of a CSR with these row lengths."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class MemberArrays:
    """IXP memberships, member policies and member cones as index arrays.

    The one surface :mod:`repro.core.offload` reads from either world
    type (:class:`OffloadWorld` and the trial-batch ``OffloadWorldView``).
    The members are the distinct ASNs seated at some IXP, ascending:
    member ``k`` is ``asns[k]``, its published policy is
    ``POLICY_CODES[policy[k]]``, and its customer cone, as ascending
    indices into the world's contributing list (itself included when it
    contributes), is ``cone_indices[cone_indptr[k]:cone_indptr[k + 1]]``.
    IXP row ``r`` is ``ixps[r]`` (acronyms sorted); it seats the members
    ``ixp_members[ixp_indptr[r]:ixp_indptr[r + 1]]``, ascending.
    """

    ixps: tuple[str, ...]
    ixp_indptr: np.ndarray
    ixp_members: np.ndarray
    asns: np.ndarray
    policy: np.ndarray
    cone_indptr: np.ndarray
    cone_indices: np.ndarray

    @classmethod
    def build(
        cls,
        memberships: Mapping[str, np.ndarray],
        policy_codes: Callable[[np.ndarray], np.ndarray],
        cones: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> "MemberArrays":
        """From per-IXP ascending member-ASN arrays.

        ``policy_codes`` and ``cones`` map the ascending member ASNs to
        their policy codes and to their cone CSR ``(indptr, indices)``.
        """
        ixps = tuple(sorted(memberships))
        rows = [memberships[acronym] for acronym in ixps]
        entries = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )
        asns = sorted_distinct(entries)
        cone_indptr, cone_indices = cones(asns)
        return cls(
            ixps=ixps,
            ixp_indptr=csr_indptr(np.array([len(r) for r in rows])),
            ixp_members=np.searchsorted(asns, entries),
            asns=asns,
            policy=policy_codes(asns),
            cone_indptr=cone_indptr,
            cone_indices=cone_indices,
        )

    def row_of(self, acronym: str) -> int:
        """The row of one IXP; an unknown acronym raises."""
        row = bisect.bisect_left(self.ixps, acronym)
        if row == len(self.ixps) or self.ixps[row] != acronym:
            raise ConfigurationError(f"unknown IXP {acronym!r}")
        return row

    def members_at(self, row: int) -> np.ndarray:
        """Member indices seated at IXP row ``row``, ascending."""
        return self.ixp_members[
            self.ixp_indptr[row]:self.ixp_indptr[row + 1]
        ]


class _Csr(NamedTuple):
    """Row ``i`` is ``values[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray
    values: np.ndarray

    @classmethod
    def from_pairs(
        cls, rows: np.ndarray, values: np.ndarray, n: int
    ) -> "_Csr":
        """From (row, value) pairs already sorted by row."""
        return cls(csr_indptr(np.bincount(rows, minlength=n)), values)

    def row(self, i: int) -> np.ndarray:
        return self.values[self.indptr[i]:self.indptr[i + 1]]

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sub-CSR of ``rows``, as ``(indptr, values)``."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        return csr_indptr(lengths), gather_runs(self.values, starts, lengths)


_NO_CONE = np.empty(0, dtype=np.int32)


class _ConeTables(NamedTuple):
    """Every AS's customer cone, as CSRs over the sorted-ASN ids."""

    asns: np.ndarray   # sorted ASNs: id ``v`` is ``asns[v]``
    contrib: _Csr      # id → contributing indices in the cone
    all: _Csr          # id → sorted-ASN ids in the cone

    def id_of(self, asn: ASN) -> int | None:
        v = int(np.searchsorted(self.asns, asn))
        return v if v < self.asns.size and self.asns[v] == asn else None


@dataclass
class OffloadWorld:
    """The generated world plus every precomputed view the study needs."""

    config: OffloadWorldConfig
    graph: ASGraph
    rediris: ASN
    transit_providers: tuple[ASN, ASN]
    tier1s: tuple[ASN, ...]
    geant: ASN
    nrens: tuple[ASN, ...]
    giants: tuple[ASN, ...]
    direct_peer_cdns: tuple[ASN, ...]
    euroix: tuple[EuroIXSpec, ...]
    memberships: dict[str, frozenset[ASN]]
    contributing: list[ASN]
    matrix: TrafficMatrix
    inbound_paths: dict[ASN, ASPath]
    collector: FlowCollector
    region_of: dict[ASN, str]
    _contrib_index: dict[ASN, int] = field(default_factory=dict)
    _cone_cache: dict[ASN, frozenset[ASN]] = field(default_factory=dict)
    # Derived caches: not init fields, so ``dataclasses.replace`` (say,
    # with other memberships) rebuilds them.
    _cone_tables: _ConeTables | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _members: MemberArrays | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self._contrib_index:
            self._contrib_index = {a: i for i, a in enumerate(self.contributing)}

    # -- lookups -----------------------------------------------------------------

    def contributing_index(self, asn: ASN) -> int | None:
        """Index of ``asn`` in the contributing arrays, or None."""
        return self._contrib_index.get(asn)

    def cone(self, asn: ASN) -> frozenset[ASN]:
        """Customer cone of ``asn`` (cached)."""
        cached = self._cone_cache.get(asn)
        if cached is None:
            cached = frozenset(customer_cone(self.graph, asn))
            self._cone_cache[asn] = cached
        return cached

    def policy_of(self, asn: ASN) -> PeeringPolicy:
        """Published peering policy of a network."""
        return self.graph.get(asn).policy

    def kind_of(self, asn: ASN) -> NetworkKind:
        """Business type of a network."""
        return self.graph.get(asn).kind

    # -- cone index tables (the offload cone CSRs' raw material) -----------------

    def _cone_index_tables(self) -> _ConeTables:
        """Per-AS cone membership as index CSRs, built bottom-up.

        ``contrib`` row ``v`` holds the indices (into :attr:`contributing`)
        of the contributing networks inside the cone of the ``v``-th
        sorted ASN; ``all`` row ``v`` the indices into the sorted
        :meth:`all_asns` list.  The relation is inverted —
        ``i ∈ cone(a)  ⇔  a ∈ closure(i)`` where *closure* is a network
        plus its transitive providers — and closures are computed as one
        array program over the customer→provider DAG: a Kahn level order
        (all providers of a level-``k`` node sit in levels ``< k``), then
        per level one gather of every provider closure (CSR multi-slice),
        one ``np.unique`` dedup over packed (member, ancestor) keys, and
        one COO append.  A final argsort by (ancestor, member) lays the
        pair list out as the per-ancestor CSR rows.
        """
        if self._cone_tables is None:
            asns = self.graph.asns()
            n = len(asns)
            id_of = {asn: i for i, asn in enumerate(asns)}

            # customer→provider edges as id arrays.
            cust_ids: list[int] = []
            prov_ids: list[int] = []
            pending = np.zeros(n, dtype=np.int64)  # unresolved providers
            for asn, providers in self.graph.provider_sets().items():
                if not providers:
                    continue
                v = id_of[asn]
                pending[v] = len(providers)
                for provider in providers:
                    cust_ids.append(v)
                    prov_ids.append(id_of[provider])
            cust = np.asarray(cust_ids, dtype=np.int64)
            prov = np.asarray(prov_ids, dtype=np.int64)

            # CSR closure storage, appended level by level.
            closure_start = np.zeros(n, dtype=np.int64)
            closure_len = np.zeros(n, dtype=np.int64)
            closure_values = np.empty(0, dtype=np.int64)
            member_chunks: list[np.ndarray] = []   # COO: member ids
            ancestor_chunks: list[np.ndarray] = []  # COO: ancestor ids

            frontier = np.flatnonzero(pending == 0)
            resolved = 0
            while frontier.size:
                resolved += frontier.size
                if closure_values.size:
                    in_frontier = np.zeros(n, dtype=bool)
                    in_frontier[frontier] = True
                    sel = in_frontier[cust]
                    e_cust, e_prov = cust[sel], prov[sel]
                    lens = closure_len[e_prov]
                    # Multi-slice gather of every provider closure.
                    ancestors = gather_runs(
                        closure_values, closure_start[e_prov], lens
                    )
                    owners = np.repeat(e_cust, lens)
                    owners = np.concatenate([owners, frontier])
                    ancestors = np.concatenate([ancestors, frontier])
                else:  # first level: roots close over themselves only
                    owners = ancestors = frontier
                # Dedup (owner, ancestor) pairs; keys sort owner-major, so
                # each owner's closure lands contiguous and v-ascending.
                keys = np.unique(owners * np.int64(n) + ancestors)
                owners, ancestors = keys // n, keys % n
                uniq, first, counts = np.unique(
                    owners, return_index=True, return_counts=True
                )
                closure_start[uniq] = closure_values.size + first
                closure_len[uniq] = counts
                closure_values = np.concatenate([closure_values, ancestors])
                member_chunks.append(owners)
                ancestor_chunks.append(ancestors)
                # Kahn step: release customers whose providers are done.
                in_frontier = np.zeros(n, dtype=bool)
                in_frontier[frontier] = True
                done = in_frontier[prov]
                pending -= np.bincount(cust[done], minlength=n)
                pending[frontier] = -1  # never re-enter the frontier
                frontier = np.flatnonzero(pending == 0)
            if resolved != n:
                raise TopologyError(
                    "provider graph has a cycle; cone tables undefined"
                )

            members = np.concatenate(member_chunks)
            ancestors = np.concatenate(ancestor_chunks)
            # Per-ancestor member lists, members ascending within each.
            order = np.argsort(ancestors * np.int64(n) + members)
            members = members[order].astype(np.int32)
            ancestors = ancestors[order]

            contrib_of = np.full(n, -1, dtype=np.int64)
            for asn, ci in self._contrib_index.items():
                contrib_of[id_of[asn]] = ci
            keep = contrib_of[members] >= 0
            self._cone_tables = _ConeTables(
                asns=np.asarray(asns, dtype=np.int64),
                contrib=_Csr.from_pairs(
                    ancestors[keep],
                    contrib_of[members[keep]].astype(np.int32), n,
                ),
                all=_Csr.from_pairs(ancestors, members, n),
            )
        return self._cone_tables

    def cone_contrib_indices(self, asn: ASN) -> np.ndarray:
        """Contributing-array indices covered by ``asn``'s customer cone."""
        tables = self._cone_index_tables()
        v = tables.id_of(asn)
        return _NO_CONE if v is None else tables.contrib.row(v)

    def cone_all_indices(self, asn: ASN) -> np.ndarray:
        """Sorted-ASN-array indices covered by ``asn``'s customer cone."""
        tables = self._cone_index_tables()
        v = tables.id_of(asn)
        return _NO_CONE if v is None else tables.all.row(v)

    def contributing_mask_for_members(self, members: frozenset[ASN]) -> np.ndarray:
        """Boolean mask over contributing networks offloadable via ``members``.

        A contributing network is offloadable when it belongs to a member's
        customer cone (members themselves included).
        """
        mask = np.zeros(len(self.contributing), dtype=bool)
        # Scattering True into a boolean mask is commutative: any member
        # order produces the same mask.  # repro-lint: ok[det-set-iter]
        for member in members:
            mask[self.cone_contrib_indices(member)] = True
        return mask

    # -- the array surface of repro.core.offload -----------------------------

    def member_arrays(self) -> MemberArrays:
        """The memberships and the member cones as index arrays (cached)."""
        if self._members is None:
            tables = self._cone_index_tables()
            self._members = MemberArrays.build(
                {
                    acronym: np.array(sorted(members), dtype=np.int64)
                    for acronym, members in self.memberships.items()
                },
                lambda asns: np.array(
                    [_POLICY_CODE[self.graph.get(a).policy]
                     for a in asns.tolist()],
                    dtype=np.int8,
                ),
                lambda asns: tables.contrib.take(
                    np.searchsorted(tables.asns, asns)
                ),
            )
        return self._members

    def member_all_cones(self) -> tuple[np.ndarray, np.ndarray]:
        """Member cones over the sorted :meth:`all_asns` ids, as a CSR.

        Rows follow :meth:`member_arrays` members; Figure 10's address
        metric counts every AS in a cone, not only the contributing ones.
        """
        tables = self._cone_index_tables()
        return tables.all.take(
            np.searchsorted(tables.asns, self.member_arrays().asns)
        )

    def all_asns(self) -> list[ASN]:
        """Every ASN in the world, sorted."""
        return self.graph.asns()

    def address_space_of(self, asns) -> float:
        """Total announced address space of a set of ASes."""
        return float(sum(self.graph.get(a).address_space for a in asns))

    def total_address_space(self) -> float:
        """Announced space of the whole world (Figure 10's 2.6 B)."""
        return self.address_space_of(self.graph.asns())


# ---------------------------------------------------------------------------


def build_offload_world(config: OffloadWorldConfig | None = None) -> OffloadWorld:
    """Generate the offload world deterministically from ``config.seed``."""
    config = config or OffloadWorldConfig()
    builder = _OffloadBuilder(config)
    # The build allocates ~100k long-lived objects (ASes, paths, sets);
    # generational collections triggered mid-build scan them repeatedly and
    # cost ~25% wall time while reclaiming nothing.  Suspend collection for
    # the allocation burst.
    resume_gc = gc.isenabled()
    if resume_gc:
        gc.disable()
    try:
        return builder.build()
    finally:
        if resume_gc:
            gc.enable()


class _OffloadBuilder:
    """The stage-array draw program (see module doc) and its realization.

    Scaffold tiers are built network by network; each drawn tier is
    materialized as arrays and bulk-inserted; traffic, memberships,
    address space and routing are array-native.
    """

    def __init__(self, config: OffloadWorldConfig) -> None:
        self.config = config
        self.graph = ASGraph()
        self.region_of: dict[ASN, str] = {}
        self.tier1_only_stubs: list[ASN] = []
        self.tier1_only_stubs_set: set[ASN] = set()
        self.mega_carriers: list[ASN] = []
        self.big_eyeballs: list[ASN] = []
        # Business kinds recorded as the tiers materialize, so the traffic
        # split never re-derives (and can never disagree with) the graph.
        self._giant_kinds: list[NetworkKind] = []
        self._stub_kinds: list[NetworkKind] = []

    # -- AS creation helpers ------------------------------------------------------

    def _add(
        self,
        asn: int,
        name: str,
        kind: NetworkKind,
        policy: PeeringPolicy,
        region: str,
        address_space: int = 256,
    ) -> ASN:
        value = ASN(asn)
        self.graph.add_as(
            AutonomousSystem(
                asn=value,
                name=name,
                kind=kind,
                policy=policy,
                address_space=address_space,
            )
        )
        self.region_of[value] = region
        return value

    def _stage_rng(self, stage: str) -> np.random.Generator:
        """The child stream for one build stage."""
        return child_rng(self.config.seed, "offload", stage)

    # -- build ------------------------------------------------------------------------

    def build(self) -> OffloadWorld:
        cfg = self.config
        rediris = self._add(
            766, "rediris", NetworkKind.NREN, PeeringPolicy.SELECTIVE, "europe",
            2 ** 20,
        )
        tier1s = self._build_tier1s()
        t1a, t1b = tier1s[0], tier1s[1]
        self.graph.add_customer_provider(rediris, t1a)
        self.graph.add_customer_provider(rediris, t1b)

        geant, nrens = self._build_geant(rediris, tier1s)
        giants = self._build_giants(tier1s)
        direct_cdns = self._build_direct_peer_cdns(rediris, tier1s)
        self._tier2_draws = _Tier2Draws.draw(self)
        tier2s = self._materialize_tier2s(tier1s, self._tier2_draws)
        self._stub_draws = _StubDraws.draw(self, tier1s)
        stubs = self._materialize_stubs(tier1s, tier2s, self._stub_draws)

        contributing = self._contributing_list(giants, tier2s, stubs)
        matrix = self._build_traffic(contributing)
        members = self._build_memberships(rediris, tier1s, giants, tier2s)
        memberships = {
            acronym: frozenset(asns.tolist())
            for acronym, asns in members.items()
        }
        self._scale_address_space()

        computation = RouteComputation(self.graph)
        inbound_paths = computation.best_paths_to(rediris)
        table = ReversedPathTable(self.graph, rediris, inbound_paths)
        collector = FlowCollector(
            table=table,
            matrix=matrix,
            counterparties=contributing,
            days=cfg.days,
        )
        return OffloadWorld(
            config=cfg,
            graph=self.graph,
            rediris=rediris,
            transit_providers=(t1a, t1b),
            tier1s=tuple(tier1s),
            geant=geant,
            nrens=tuple(nrens),
            giants=tuple(giants),
            direct_peer_cdns=tuple(direct_cdns),
            euroix=euroix_catalog(),
            memberships=memberships,
            contributing=contributing,
            matrix=matrix,
            inbound_paths=inbound_paths,
            collector=collector,
            region_of=self.region_of,
        )

    # -- deterministic scaffold tiers ---------------------------------------------

    def _build_tier1s(self) -> list[ASN]:
        tier1s = [
            self._add(
                101 + i,
                f"tier1-{i}",
                NetworkKind.TIER1,
                PeeringPolicy.RESTRICTIVE,
                "north_america" if i % 2 else "europe",
                2 ** 22,
            )
            for i in range(self.config.tier1_count)
        ]
        for i, a in enumerate(tier1s):
            for b in tier1s[i + 1:]:
                self.graph.add_peering(a, b)
        return tier1s

    def _build_geant(self, rediris: ASN, tier1s: list[ASN]):
        geant = self._add(
            900, "geant-like", NetworkKind.NREN, PeeringPolicy.SELECTIVE,
            "europe", 2 ** 18,
        )
        self.graph.add_peering(rediris, geant)
        self.graph.add_peering(geant, tier1s[2])
        nrens = []
        for i in range(self.config.nren_count):
            nren = self._add(
                901 + i, f"nren-{i}", NetworkKind.NREN,
                PeeringPolicy.SELECTIVE, "europe", 2 ** 17,
            )
            self.graph.add_customer_provider(nren, geant)
            nrens.append(nren)
        return geant, nrens

    def _build_giants(self, tier1s: list[ASN]) -> list[ASN]:
        keys = self._stage_rng("giants").random((len(_GIANTS), len(tier1s)))
        provider_picks = np.argsort(keys, axis=1)[:, :2]
        giants = []
        for i, (name, policy) in enumerate(_GIANTS):
            kind = NetworkKind.CDN if i % 2 else NetworkKind.CONTENT
            giant = self._add(
                2001 + i, name, kind, policy, "north_america", 2 ** 19,
            )
            for p in provider_picks[i]:
                self.graph.add_customer_provider(giant, tier1s[int(p)])
            self._giant_kinds.append(kind)
            giants.append(giant)
        return giants

    def _build_direct_peer_cdns(self, rediris: ASN, tier1s: list[ASN]) -> list[ASN]:
        """CDNs RedIRIS already peers with — their traffic is not transit."""
        cdns = []
        for i in range(6):
            cdn = self._add(
                2101 + i, f"peered-cdn-{i}", NetworkKind.CDN,
                PeeringPolicy.OPEN, "europe", 2 ** 17,
            )
            self.graph.add_customer_provider(cdn, tier1s[i % len(tier1s)])
            self.graph.add_peering(rediris, cdn)
            cdns.append(cdn)
        return cdns

    # -- drawn tiers --------------------------------------------------------------

    def _materialize_tier2s(
        self, tier1s: list[ASN], draws: _Tier2Draws
    ) -> list[ASN]:
        cfg = self.config
        n2 = cfg.tier2_count
        regions = [_REGIONS[i] for i in draws.region_idx.tolist()]
        policies = draws.policy_codes(cfg.mega_carrier_count).tolist()
        tier2s = [ASN(3001 + i) for i in range(n2)]
        self.graph.add_ases_bulk(
            AutonomousSystem.make_unchecked(
                tier2s[i],
                f"transit-{regions[i]}-{i}",
                NetworkKind.TRANSIT,
                POLICY_CODES[policies[i]],
                2 ** 16,
            )
            for i in range(n2)
        )
        self.region_of.update(zip(tier2s, regions))
        tier1_arr = np.array(tier1s, dtype=np.int64)
        col = np.arange(draws.uplink_order.shape[1])
        take = col[None, :] < draws.uplink_count[:, None]
        customers = np.repeat(np.array(tier2s), draws.uplink_count)
        providers = tier1_arr[draws.uplink_order[take]]
        self.graph.add_customer_provider_arrays(customers, providers)
        self.mega_carriers = tier2s[: cfg.mega_carrier_count]
        return tier2s

    def _materialize_stubs(
        self, tier1s: list[ASN], tier2s: list[ASN], draws: _StubDraws
    ) -> list[ASN]:
        cfg = self.config
        n = len(draws.region_idx)
        regions = [_REGIONS[i] for i in draws.region_idx.tolist()]
        big = draws.big_eyeball
        tier1_only = draws.tier1_only
        normal = ~big & ~tier1_only
        big_list = big.tolist()
        kind_list = [
            NetworkKind.ACCESS if big_list[i] else _STUB_KINDS[k]
            for i, k in enumerate(draws.kind_idx.tolist())
        ]
        self._stub_kinds = kind_list
        policy_codes = draws.policy_codes().tolist()
        stubs = list(range(10_001, 10_001 + n))
        make = AutonomousSystem.make_unchecked
        self.graph.add_ases_bulk(
            make(asn, f"stub-{region}-{i}", kind, POLICY_CODES[code])
            for i, (asn, region, kind, code) in enumerate(
                zip(stubs, regions, kind_list, policy_codes)
            )
        )
        self.region_of.update(zip(stubs, regions))
        stub_arr = np.array(stubs, dtype=np.int64)

        pairs_customers: list[np.ndarray] = []
        pairs_providers: list[np.ndarray] = []

        # Big eyeballs: two tier-1s each, often plus one mega-carrier.  All
        # of one eyeball's edges stay contiguous (the arrays edge API
        # assembles each customer's provider set from one run).
        tier1_arr = np.array(tier1s, dtype=np.int64)
        eyeball_asns = stub_arr[big]
        if len(eyeball_asns):
            count_b = len(eyeball_asns)
            provider3 = np.zeros((count_b, 3), dtype=np.int64)
            provider3[:, :2] = tier1_arr[draws.eyeball_order[:, :2]]
            take3 = np.zeros((count_b, 3), dtype=bool)
            take3[:, :2] = True
            if self.mega_carriers:
                mega_arr = np.array(self.mega_carriers, dtype=np.int64)
                homed = draws.eyeball_mega_homed
                mega_idx = (
                    draws.eyeball_mega_pick_u[homed] * len(mega_arr)
                ).astype(np.int64)
                provider3[homed, 2] = mega_arr[mega_idx]
                take3[:, 2] = homed
            pairs_customers.append(
                np.repeat(eyeball_asns, take3.sum(axis=1))
            )
            pairs_providers.append(provider3[take3])
            for asn in eyeball_asns.tolist():
                self.graph.get(ASN(asn)).tags.add("big-eyeball")
            self.big_eyeballs = [ASN(a) for a in eyeball_asns.tolist()]

        # Tier-1-only stubs: 1-3 distinct tier-1s by ascending key.
        t1o_asns = stub_arr[tier1_only]
        if len(t1o_asns):
            counts = np.minimum(draws.provider_count[tier1_only], 3)
            col = np.arange(draws.tier1_only_order.shape[1])
            take = col[None, :] < counts[:, None]
            pairs_customers.append(np.repeat(t1o_asns, counts))
            pairs_providers.append(tier1_arr[draws.tier1_only_order[take]])
            self.tier1_only_stubs = [ASN(a) for a in t1o_asns.tolist()]

        # Normal stubs: providers from the mega / regional / global tier-2
        # pool chosen by the homing-pool uniform, indices by floor(u * len).
        normal_asns = stub_arr[normal]
        if len(normal_asns):
            tier2_arr = np.array(tier2s, dtype=np.int64)
            mega_count = len(self.mega_carriers)
            region_codes = draws.region_idx[normal]
            tier2_regions = np.array(
                [_REGIONS.index(self.region_of[t]) for t in tier2s]
            )
            local_members = [
                tier2_arr[tier2_regions == r] for r in range(len(_REGIONS))
            ]
            local_sizes = np.array([len(m) for m in local_members])
            local_concat = (
                np.concatenate(local_members) if len(tier2_arr) else tier2_arr
            )
            local_offsets = np.concatenate(
                ([0], np.cumsum(local_sizes)[:-1])
            )
            u = draws.pool_u[normal]
            local_len = local_sizes[region_codes]
            cat_mega = (u < 0.15) & (mega_count > 0)
            cat_local = ~cat_mega & (u < 0.85) & (local_len > 0)
            cat_global = ~cat_mega & ~cat_local
            pool_len = np.where(
                cat_mega, mega_count,
                np.where(cat_local, local_len, len(tier2_arr)),
            )
            counts = draws.provider_count[normal]
            idx = np.minimum(
                (draws.pick_u * pool_len[:, None]).astype(np.int64),
                np.maximum(pool_len[:, None] - 1, 0),
            )
            provider_mat = np.empty_like(idx)
            provider_mat[cat_mega] = tier2_arr[:mega_count][idx[cat_mega]]
            provider_mat[cat_local] = local_concat[
                local_offsets[region_codes[cat_local], None] + idx[cat_local]
            ]
            provider_mat[cat_global] = tier2_arr[idx[cat_global]]
            # Per-row dedupe (<= 3 picks): repeated draws of one provider
            # collapse to a single edge.
            col = np.arange(3)
            take = col[None, :] < counts[:, None]
            take[:, 1] &= provider_mat[:, 1] != provider_mat[:, 0]
            take[:, 2] &= (provider_mat[:, 2] != provider_mat[:, 0]) & (
                provider_mat[:, 2] != provider_mat[:, 1]
            )
            pairs_customers.append(np.repeat(normal_asns, take.sum(axis=1)))
            pairs_providers.append(provider_mat[take])

        self.graph.add_customer_provider_arrays(
            np.concatenate(pairs_customers), np.concatenate(pairs_providers)
        )
        self.tier1_only_stubs_set = set(self.tier1_only_stubs)
        return stubs

    def _tier2_propensities(self) -> np.ndarray:
        """IXP propensities of the member tier-2s, a prefix of the tier."""
        cfg = self.config
        member_cut = int(cfg.member_tier2_fraction * cfg.tier2_count)
        propensities: list[float] = []
        for i in range(cfg.tier2_count):
            if i < cfg.mega_carrier_count:
                # Global mega-carriers: everywhere, with worldwide cones.
                propensities.append(45.0)
            elif i < member_cut:
                # Transit networks reliably show up at their region's
                # exchanges (floor), and the biggest ones dominate the draw.
                propensities.append(8.0 + float((1 + i) ** -0.7) * 30.0)
            else:
                break
        return np.array(propensities, dtype=float)

    # -- traffic -----------------------------------------------------------------------

    def _contributing_list(self, giants, tier2s, stubs) -> list[ASN]:
        contributing = [*giants, *tier2s, *stubs]
        if len(contributing) != self.config.contributing_count:
            raise ConfigurationError(
                f"contributing count {len(contributing)} != "
                f"{self.config.contributing_count}"
            )
        return contributing

    def _build_traffic(self, contributing: list[ASN]) -> TrafficMatrix:
        """Traffic calibrated to Figures 5a/6.

        Pipeline: double-Pareto totals → regional bias (Spanish NREN
        traffic is EU/NA-heavy) → pin the content giants onto their
        reserved top ranks → pin the rest of the head onto tier-1-only
        eyeballs (the never-offloadable mass) → split in/out by business
        type and normalise the direction totals.
        """
        cfg = self.config
        traffic_cfg = cfg.traffic or TrafficMatrixConfig(seed=cfg.seed)
        rng = child_rng(cfg.seed, "traffic")
        count = len(contributing)
        totals = rank_profile_totals(count, traffic_cfg, rng)
        totals = totals[rng.permutation(count)]
        totals = totals * self._region_multipliers(contributing)

        self._pin_giants(totals)
        kinds = self._contrib_kinds()
        self._pin_head_to_tier1_only(totals, contributing, rng, kinds)

        return split_totals_by_kind(totals, kinds, traffic_cfg, rng)

    def _contrib_kinds(self) -> list[NetworkKind]:
        """Business types of the contributing list, recorded at build time."""
        tier2 = [NetworkKind.TRANSIT] * self.config.tier2_count
        return [*self._giant_kinds, *tier2, *self._stub_kinds]

    def _region_multipliers(self, contributing: list[ASN]) -> np.ndarray:
        # contributing = [giants (all north_america), tier-2s, stubs]; the
        # tier regional codes come straight from the stage draws.
        table = np.array([_REGION_TRAFFIC_MULTIPLIER[r] for r in _REGIONS])
        return np.concatenate([
            np.full(len(_GIANTS), _REGION_TRAFFIC_MULTIPLIER["north_america"]),
            table[self._tier2_draws.region_idx],
            table[self._stub_draws.region_idx],
        ])

    def _pin_giants(self, totals: np.ndarray) -> None:
        """Swap the giants (head of ``contributing``) onto reserved ranks.

        One descending argsort is maintained incrementally: a swap
        exchanges two values, so only their two rank slots move — no
        re-sort per giant.
        """
        order = np.argsort(totals)[::-1].copy()
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        for giant_idx, rank in enumerate(_GIANT_RANKS[: len(_GIANTS)]):
            target_idx = int(order[rank - 1])
            if target_idx == giant_idx:
                continue
            totals[giant_idx], totals[target_idx] = (
                totals[target_idx],
                totals[giant_idx],
            )
            pg, pt = int(position[giant_idx]), int(position[target_idx])
            order[pg], order[pt] = target_idx, giant_idx
            position[giant_idx], position[target_idx] = pt, pg

    def _pin_head_to_tier1_only(
        self, totals: np.ndarray, contributing: list[ASN], rng,
        kinds: list[NetworkKind],
    ) -> None:
        """Seat tier-1-only eyeballs on the non-giant head ranks.

        The paper's maximum offload sits near 25–33% because the largest
        transit counterparties are broadband/content networks that peer
        nowhere RedIRIS can reach; pinning them to tier-1-only stubs (whose
        cones no candidate peer carries) reproduces that ceiling.
        """
        cfg = self.config
        if not self.tier1_only_stubs:
            return
        index_of = {a: i for i, a in enumerate(contributing)}
        giant_count = len(_GIANTS)
        pool = [index_of[a] for a in self.tier1_only_stubs]
        # Weight by region (EU/NA eyeballs carry the head) and by business
        # type: content-ish kinds keep the unreachable head inbound-heavy,
        # so the *offloadable* remainder is outbound-tilted as in the paper
        # (27% inbound vs 33% outbound at 65 IXPs).
        kind_weight = {
            NetworkKind.CONTENT: 4.0,
            NetworkKind.CDN: 4.0,
            NetworkKind.HOSTING: 2.5,
            NetworkKind.ENTERPRISE: 1.5,
            NetworkKind.TRANSIT: 1.0,
            NetworkKind.ACCESS: 0.35,
            NetworkKind.NREN: 1.0,
            NetworkKind.TIER1: 1.0,
        }
        weights = np.array(
            [
                _REGION_TRAFFIC_MULTIPLIER[self.region_of[contributing[i]]]
                * kind_weight[kinds[i]]
                for i in pool
            ]
        )
        draw_count = min(cfg.head_pin_count, len(pool))
        picks = weighted_top_k(rng, weights, draw_count)
        # Seat the picks content-first: the heaviest head ranks go to the
        # most content-ish eyeballs (stable within equal kind weight).  The
        # very top rank can hold >15% of all transit mass, so leaving its
        # business type to chance made the in/out offload split swing
        # wildly across seeds; Figure 6's top contributors are
        # endpoint-dominant content networks, not broadband eyeballs.
        picks = sorted(
            picks.tolist(),
            key=lambda i: -kind_weight[kinds[pool[i]]],
        )
        chosen = iter(pool[int(i)] for i in picks)
        order = np.argsort(totals)[::-1]
        giant_rank_set = set(_GIANT_RANKS[:giant_count])
        pinned: set[int] = set()
        for rank in range(1, cfg.head_pin_count + 1):
            if rank in giant_rank_set:
                continue
            holder = int(order[rank - 1])
            if holder < giant_count or holder in pinned:
                continue  # a giant or an already-pinned eyeball holds it
            if contributing[holder] in self.tier1_only_stubs_set:
                pinned.add(holder)
                continue  # already a tier-1-only network
            try:
                eyeball = next(chosen)
            except StopIteration:
                break
            while eyeball == holder or eyeball in pinned:
                try:
                    eyeball = next(chosen)
                except StopIteration:
                    return
            totals[holder], totals[eyeball] = totals[eyeball], totals[holder]
            pinned.add(eyeball)

    # -- memberships ------------------------------------------------------------------------

    def _build_memberships(
        self, rediris: ASN, tier1s: list[ASN], giants: list[ASN],
        tier2s: list[ASN],
    ) -> dict[str, np.ndarray]:
        """Draw the 65 IXPs' member lists from regional pools.

        The IXP-goers — the giants, the member tier-2s and the IXP-goer
        stubs — are one ascending-ASN array with region codes, propensity
        weights and a global flag, read straight off the stage draws; a
        pool is a mask over it.  Returns each IXP's members as an
        ascending ASN array, in catalog order.
        """
        draws = self._stub_draws
        tier2_weights = self._tier2_propensities()
        member_tier2s = len(tier2_weights)
        mega_count = len(self.mega_carriers)
        goer_stubs = np.flatnonzero(
            ~draws.big_eyeball & ~draws.tier1_only & draws.ixpgoer
        )
        # Non-mega member tier-2s go global with probability 0.18.
        global_u = self._stage_rng("globals").random(
            member_tier2s - mega_count
        )
        goer_asns = np.concatenate([
            np.asarray(giants, dtype=np.int64),
            np.asarray(tier2s[:member_tier2s], dtype=np.int64),
            10_001 + goer_stubs,
        ])
        goer_regions = np.concatenate([
            np.full(len(giants), _REGIONS.index("north_america")),
            self._tier2_draws.region_idx[:member_tier2s],
            draws.region_idx[goer_stubs],
        ])
        goer_weights = np.concatenate([
            np.full(len(giants), 50.0),  # giants are at every big IXP
            tier2_weights,
            draws.propensity[goer_stubs],
        ])
        goer_global = np.concatenate([
            np.ones(len(giants) + mega_count, dtype=bool),
            global_u < 0.18,
            np.zeros(len(goer_stubs), dtype=bool),
        ])
        members: dict[str, np.ndarray] = {}
        # RedIRIS's two home IXPs are small local exchanges: their members
        # come from the regional pool only.  Were the global carriers seated
        # there, the exclusion rules would sweep every mega-carrier out of
        # the candidate set — which is neither realistic nor the paper's
        # situation.
        local_only = ("CATNIX", "ESpanix")
        # 65 IXPs use only a handful of distinct (regions, local-only)
        # pools; each is built once.
        pool_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        for spec in euroix_catalog():
            rng = child_rng(self.config.seed, "membership", spec.acronym)
            regions = _IXP_POOL_OVERRIDES.get(spec.acronym, (spec.region,))
            key = (regions, spec.acronym in local_only)
            cached = pool_cache.get(key)
            if cached is None:
                pooled_region = np.zeros(len(_REGIONS), dtype=bool)
                pooled_region[[_REGIONS.index(r) for r in regions]] = True
                in_pool = pooled_region[goer_regions]
                if spec.acronym not in local_only:
                    in_pool |= goer_global
                cached = pool_cache[key] = (
                    goer_asns[in_pool], goer_weights[in_pool],
                )
            pool, weights = cached
            size = min(spec.member_count, len(pool))
            picks = weighted_top_k(rng, weights, size)
            members[spec.acronym] = np.sort(pool[picks])
        # RedIRIS's own IXPs: ESpanix hosts every tier-1 (the paper's reason
        # to exclude them), CATNIX is the small Catalan exchange.
        none = np.empty(0, dtype=np.int64)
        members["ESpanix"] = np.union1d(
            members.get("ESpanix", none), [*tier1s, rediris]
        )
        members["CATNIX"] = np.union1d(members.get("CATNIX", none), [rediris])
        return members

    # -- address space -------------------------------------------------------------------------

    def _scale_address_space(self) -> None:
        """Scale announced space so the world totals ~2.6 B addresses.

        Big eyeballs end up holding ``big_eyeball_space_share`` of all
        space — the real IPv4 Internet concentrates its addresses in a few
        hundred broadband networks, and Figure 10's steep first-IXP drop
        depends on that concentration.  Multipliers are drawn as one array
        per kind class, in the order the module docstring documents.
        """
        cfg = self.config
        rng = self._stage_rng("addrspace")
        ases = self.graph.ases()
        count = len(ases)
        big = set(self.big_eyeballs)
        space = np.fromiter(
            (a.address_space for a in ases), dtype=np.float64, count=count
        )
        big_mask = np.fromiter(
            (a.asn in big for a in ases), dtype=bool, count=count
        )
        access_mask = np.fromiter(
            (a.kind is NetworkKind.ACCESS for a in ases), dtype=bool,
            count=count,
        ) & ~big_mask
        carrier_mask = np.fromiter(
            (a.kind in (NetworkKind.TIER1, NetworkKind.TRANSIT) for a in ases),
            dtype=bool, count=count,
        ) & ~big_mask
        space[access_mask] = np.floor(
            space[access_mask]
            * rng.uniform(10, 80, size=int(access_mask.sum()))
        )
        space[carrier_mask] = np.floor(
            space[carrier_mask]
            * rng.uniform(4, 40, size=int(carrier_mask.sum()))
        )
        other_total = float(space[~big_mask].sum())
        big_total_target = (
            cfg.big_eyeball_space_share
            / (1.0 - cfg.big_eyeball_space_share)
            * other_total
        )
        if big:
            per_eyeball_weight = rng.lognormal(0.0, 0.8, size=len(big))
            per_eyeball_weight /= per_eyeball_weight.sum()
            big_positions = np.flatnonzero(big_mask)  # ascending ASN order
            space[big_positions] = np.maximum(
                1.0, np.floor(big_total_target * per_eyeball_weight)
            )
        scale = cfg.total_address_space / float(space.sum())
        final = np.maximum(1, np.floor(space * scale).astype(np.int64)).tolist()
        for asys, value in zip(ases, final):
            asys.address_space = value


# ---------------------------------------------------------------------------
# Stage draws (in the documented order).


def _lowest(keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` lowest keys, ties to the lower index.

    The first ``k`` entries of a stable argsort, as a set, from one
    partition instead of a full sort.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(keys, k - 1)[k - 1]
    below = np.flatnonzero(keys < kth)
    tied = np.flatnonzero(keys == kth)
    return np.concatenate([below, tied[: k - below.size]])


def _region_indices(u: np.ndarray) -> np.ndarray:
    """Inverse-CDF regional draw over ``_STUB_REGION_WEIGHTS``."""
    cum = np.cumsum(_STUB_REGION_WEIGHTS)
    return np.minimum(
        np.searchsorted(cum, u, side="right"), len(_REGIONS) - 1
    )


@dataclass(frozen=True, slots=True)
class _Tier2Draws:
    """Stage arrays for the transit tier (see module docstring)."""

    region_idx: np.ndarray     # int[n2]
    policy_u: np.ndarray       # float[n2]
    uplink_count: np.ndarray   # int[n2] in {1, 2, 3}
    uplink_order: np.ndarray   # int[n2, T]: tier-1 indices by ascending key

    @classmethod
    def draw(cls, builder: _OffloadBuilder) -> "_Tier2Draws":
        cfg = builder.config
        rng = builder._stage_rng("tier2s")
        n2, t1 = cfg.tier2_count, cfg.tier1_count
        region_u = rng.random(n2)
        policy_u = rng.random(n2)
        count_u = rng.random((n2, 2))
        uplink_keys = rng.random((n2, t1))
        return cls(
            region_idx=_region_indices(region_u),
            policy_u=policy_u,
            uplink_count=(
                1 + (count_u[:, 0] < 0.65) + (count_u[:, 1] < 0.2)
            ).astype(np.int64),
            uplink_order=np.argsort(uplink_keys, axis=1),
        )

    def policy_codes(self, mega_carrier_count: int) -> np.ndarray:
        """Per-tier-2 policy codes (``POLICY_CODES`` order)."""
        codes = _TIER2_POLICY_CODES[
            (self.policy_u * len(_TIER2_POLICY_CODES)).astype(np.int64)
        ]
        # Large carriers peer selectively or restrictively; none of them
        # shows up behind an open-policy route server.
        mega = np.arange(min(mega_carrier_count, codes.size))
        codes[mega] = np.where(mega % 3, _SELECTIVE, _RESTRICTIVE)
        return codes


@dataclass(frozen=True, slots=True)
class _StubDraws:
    """Stage arrays for the stub tier (see module docstring)."""

    region_idx: np.ndarray        # int[n]
    kind_idx: np.ndarray          # int[n]
    tier1_only: np.ndarray        # bool[n] (False on big-eyeball slots)
    ixpgoer: np.ndarray           # bool[n]
    policy_u: np.ndarray          # float[n]
    big_eyeball: np.ndarray       # bool[n]
    provider_count: np.ndarray    # int[n] in {1, 2, 3}
    pool_u: np.ndarray            # float[n]
    propensity: np.ndarray        # float[n]: IXP-goer propensity values
    eyeball_order: np.ndarray     # int[B, T]
    eyeball_mega_homed: np.ndarray  # bool[B]
    eyeball_mega_pick_u: np.ndarray  # float[B]
    tier1_only_order: np.ndarray  # int[K1, T]
    pick_u: np.ndarray            # float[K2, 3]

    @classmethod
    def draw(cls, builder: _OffloadBuilder, tier1s: list[ASN]) -> "_StubDraws":
        cfg = builder.config
        rng = builder._stage_rng("stubs")
        n = cfg.contributing_count - len(_GIANTS) - cfg.tier2_count
        t1 = len(tier1s)
        region_u = rng.random(n)
        kind_u = rng.random(n)
        tier1_only_u = rng.random(n)
        ixpgoer_u = rng.random(n)
        policy_u = rng.random(n)
        eyeball_keys = rng.random(n)
        count_u = rng.random((n, 2))
        pool_u = rng.random(n)
        propensity_u = rng.random(n)

        big = np.zeros(n, dtype=bool)
        big[_lowest(eyeball_keys, min(cfg.big_eyeball_count, n))] = True
        tier1_only = (tier1_only_u < cfg.tier1_only_stub_fraction) & ~big
        normal = ~big & ~tier1_only

        b = int(big.sum())
        k1 = int(tier1_only.sum())
        k2 = int(normal.sum())
        eyeball_keys2 = rng.random((b, t1))
        eyeball_mega_u = rng.random(b)
        eyeball_mega_pick_u = rng.random(b)
        tier1_only_keys = rng.random((k1, t1))
        pick_u = rng.random((k2, 3))
        return cls(
            region_idx=_region_indices(region_u),
            kind_idx=(kind_u * len(_STUB_KINDS)).astype(np.int64),
            tier1_only=tier1_only,
            ixpgoer=ixpgoer_u < cfg.ixpgoer_stub_fraction,
            policy_u=policy_u,
            big_eyeball=big,
            provider_count=(
                1 + (count_u[:, 0] < 0.45) + (count_u[:, 1] < 0.12)
            ).astype(np.int64),
            pool_u=pool_u,
            propensity=0.2 + 2.8 * propensity_u,
            eyeball_order=np.argsort(eyeball_keys2, axis=1),
            eyeball_mega_homed=(
                eyeball_mega_u < cfg.big_eyeball_mega_homed
            ),
            eyeball_mega_pick_u=eyeball_mega_pick_u,
            tier1_only_order=np.argsort(tier1_only_keys, axis=1),
            pick_u=pick_u,
        )

    def policy_codes(self) -> np.ndarray:
        """Per-stub policy codes (``POLICY_CODES`` order)."""
        u = self.policy_u
        return np.where(
            u < 0.62, _OPEN, np.where(u < 0.90, _SELECTIVE, _RESTRICTIVE)
        ).astype(np.int8)
