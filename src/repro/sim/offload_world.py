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
a fixed order and realizes them as index arrays over a static scaffold
shared by every seed of a variant (:class:`_Statics`: the ASN layout,
the scaffold networks, the Euro-IX catalog, the seed-independent
address-space and traffic-share tables; kept across calls for the eight
most recent variants, arrays read-only).  One realizer consumes these
draws: :func:`build_offload_world` realizes one seed.
:func:`build_offload_views` realizes a list of configs, one seed at a
time; no study passes it more than one, and it stays only as the name
the benchmark's layer trace wraps around the economics study's build.
The one-network-at-a-time reference in
``tests/reference/offload_world.py`` keeps its own copy of the seed
implementation's graph builder and must build bit-identical worlds
(``tests/test_offload_world_engines.py``).

The stream inventory is *generated*, not hand-maintained: ``repro lint
--draw-programs`` extracts it statically, ``tests/test_repro_lint.py``
holds the reference to it, and a golden of it makes any moved stream a
reviewed diff.  What no extractor can read off is the draw order
*within* each stream — that contract stays documented here:

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

What a world carries
--------------------
An :class:`OffloadWorld` carries what :mod:`repro.core.offload` reads as
index arrays (:class:`MemberArrays`: the IXP membership table, a policy
code per member and the member cones as a CSR over contributing
indices), the traffic matrix and every AS's announced space.  The
topology is three levels deep (tier-1 ← tier-2 ← stub), so the member
cones come straight from the drawn edge arrays: one argsort turns the
stub→tier-2 edges into per-tier-2 CSR member lists (own index first —
the tier-2's contributing index is below every stub index, so segments
stay ascending), tier-1 cones are the union of their direct contributing
customers plus their customer tier-2s' segments, and giants and stubs
are their own singletons.

The AS level (:meth:`OffloadWorld.as_level`: every AS's name and kind,
its customer→provider edges and the peerings, as index arrays) is
re-derived on request: the tier stages re-run on their own streams, so
the edges are the drawn ones.  No study's trial reads it; Figure 6's
transient traffic does.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.gcpause import paused_gc
from repro.ixp.euroix import EuroIXSpec, euroix_catalog
from repro.netflow.collector import FlowCollector
from repro.netflow.traffic import (
    _INBOUND_SHARE,
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

#: First ASN of each numbered block.
_TIER1_BASE, _GIANT_BASE, _TIER2_BASE, _STUB_BASE = 101, 2001, 3001, 10_001
_REDIRIS_ASN, _GEANT_ASN, _NREN_BASE = 766, 900, 901

#: The most networks each sized block holds before it runs into the next.
_MAX_TIER1 = _REDIRIS_ASN - _TIER1_BASE
_MAX_NREN = _GIANT_BASE - _NREN_BASE
_MAX_TIER2 = _STUB_BASE - _TIER2_BASE

#: Per-kind-slot lookups so per-seed stub scoring is one gather instead of
#: ~30k dict probes.
_REGION_MULT_TABLE = np.array(
    [_REGION_TRAFFIC_MULTIPLIER[r] for r in _REGIONS]
)
#: Head-pinning weight by business type: content-ish kinds keep the
#: unreachable head inbound-heavy (see ``_pin_head_to_tier1_only``).
_PIN_KIND_WEIGHT = {
    NetworkKind.CONTENT: 4.0,
    NetworkKind.CDN: 4.0,
    NetworkKind.HOSTING: 2.5,
    NetworkKind.ENTERPRISE: 1.5,
    NetworkKind.TRANSIT: 1.0,
    NetworkKind.ACCESS: 0.35,
    NetworkKind.NREN: 1.0,
    NetworkKind.TIER1: 1.0,
}
_KIND_WEIGHT_BY_SLOT = np.array([_PIN_KIND_WEIGHT[k] for k in _STUB_KINDS])
_KIND_IS_ACCESS = np.array([k is NetworkKind.ACCESS for k in _STUB_KINDS])
_KIND_IS_TRANSIT = np.array([k is NetworkKind.TRANSIT for k in _STUB_KINDS])
_SHARE_BY_SLOT = np.array([_INBOUND_SHARE[k] for k in _STUB_KINDS])
_ACCESS_SHARE = _INBOUND_SHARE[NetworkKind.ACCESS]

#: Giants plus the fewest stubs a world is built with.
_MIN_STUBS = len(_GIANTS) + 200
_FRACTIONS = (
    "tier1_only_stub_fraction",
    "member_tier2_fraction",
    "ixpgoer_stub_fraction",
    "big_eyeball_mega_homed",
)
_COUNTS = (
    "nren_count", "mega_carrier_count", "big_eyeball_count", "head_pin_count",
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
        # One chained test on the fast path: every trial spec ``replace``s
        # this config, and a warm study rerun resolves every trial.
        if (
            self.contributing_count > self.tier2_count + _MIN_STUBS
            and 3 <= self.tier1_count <= _MAX_TIER1
            and 1 <= self.tier2_count <= _MAX_TIER2
            and 0 <= self.nren_count <= _MAX_NREN
            and self.mega_carrier_count >= 0
            and self.big_eyeball_count >= 0
            and self.head_pin_count >= 0
            and self.days >= 1
            and self.total_address_space > 0
            and 0.0 <= self.tier1_only_stub_fraction <= 1.0
            and 0.0 <= self.member_tier2_fraction <= 1.0
            and 0.0 <= self.ixpgoer_stub_fraction <= 1.0
            and 0.0 <= self.big_eyeball_mega_homed <= 1.0
            and 0.0 <= self.big_eyeball_space_share < 1.0
        ):
            return
        if self.contributing_count <= self.tier2_count + _MIN_STUBS:
            raise ConfigurationError("contributing_count too small")
        # RedIRIS buys transit from the first two tier-1s and GÉANT peers
        # with the third.
        if self.tier1_count < 3:
            raise ConfigurationError("tier1_count must be at least 3")
        if self.tier2_count < 1:
            raise ConfigurationError("tier2_count must be at least 1")
        for name in _COUNTS:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} cannot be negative")
        # Each block's ASNs must stay below the next block's first ASN.
        for name, most in (
            ("tier1_count", _MAX_TIER1),
            ("tier2_count", _MAX_TIER2),
            ("nren_count", _MAX_NREN),
        ):
            if getattr(self, name) > most:
                raise ConfigurationError(f"{name} must be at most {most}")
        if self.days < 1:
            raise ConfigurationError("days must be at least 1")
        if not self.total_address_space > 0:
            raise ConfigurationError("total_address_space must be positive")
        for name in _FRACTIONS:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        # The big eyeballs are scaled to share / (1 - share) of the rest.
        raise ConfigurationError("big_eyeball_space_share must be in [0, 1)")


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

    The one surface :mod:`repro.core.offload` reads from a world.  The
    members are the distinct ASNs seated at some IXP, ascending: member
    ``k`` is ``asns[k]``, its published policy is
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

    def select(
        self, memberships: Mapping[str, Iterable[ASN]]
    ) -> "MemberArrays":
        """The arrays of ``memberships``, which may seat only these
        members: their policy codes and cones are gathered from these
        rows, so an unknown member raises."""

        def rows(asns: np.ndarray) -> np.ndarray:
            found = np.searchsorted(self.asns, asns)
            if found.size and (
                found[-1] >= self.asns.size
                or not np.array_equal(self.asns[found], asns)
            ):
                raise ConfigurationError(
                    "memberships may only seat the world's drawn members"
                )
            return found

        def cones(asns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            seats = rows(asns)
            starts = self.cone_indptr[seats]
            lengths = self.cone_indptr[seats + 1] - starts
            return (
                csr_indptr(lengths),
                gather_runs(self.cone_indices, starts, lengths),
            )

        return MemberArrays.build(
            {
                acronym: np.array(sorted(members), dtype=np.int64)
                for acronym, members in memberships.items()
            },
            lambda asns: self.policy[rows(asns)],
            cones,
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


class _ScaffoldAS(NamedTuple):
    """One network every seed of a variant shares."""

    asn: ASN
    name: str
    kind: NetworkKind
    policy: PeeringPolicy
    space: int  # announced space before the address-space stage


@dataclass
class _Statics:
    """Everything seed-independent, computed once per variant."""

    #: Tier-1s, RedIRIS, GÉANT, NRENs, giants and peered CDNs, ascending.
    scaffold: tuple[_ScaffoldAS, ...]
    tier1s: tuple[ASN, ...]
    rediris: ASN
    geant: ASN
    nrens: tuple[ASN, ...]
    giants: tuple[ASN, ...]
    direct_peer_cdns: tuple[ASN, ...]
    #: Customer→provider edges whose customer does not contribute, as an
    #: ``(m, 2)`` ASN array: RedIRIS under the two transit tier-1s, the
    #: NRENs under GÉANT, each peered CDN under its tier-1.  None of these
    #: customers has customers of its own.
    scaffold_customers: np.ndarray
    #: Peerings: the tier-1 clique, RedIRIS–GÉANT, GÉANT–third tier-1 and
    #: RedIRIS–each peered CDN.
    scaffold_peers: tuple[tuple[ASN, ASN], ...]
    euroix: tuple[EuroIXSpec, ...]
    #: Giants, tier-2s, stubs: ascending ASN, the traffic matrix's order.
    contributing: list[ASN]
    #: Contributing ASN → array index; shared read-only by every seed.
    contrib_index: dict[ASN, int]
    #: ``arange(contributing_count, dtype=int32)``: singleton cones.
    contrib_arange: np.ndarray
    #: Every ASN, ascending: the address-space array's order.
    all_asns: np.ndarray
    #: Position in :attr:`all_asns` of each contributing network.
    contrib_ids: np.ndarray
    #: Whether each AS of :attr:`all_asns` contributes.
    contributes: np.ndarray
    #: Policy code by ASN below the tier-2 block (-1: no such network).
    scaffold_policy: np.ndarray
    #: Announced space per AS before the address-space stage (stubs 256).
    base_space: np.ndarray
    #: TIER1/TRANSIT scaffold positions (the non-stub carrier multipliers).
    carrier_static: np.ndarray
    #: Offset of the stub block in :attr:`all_asns`.
    stub_offset: int
    #: ``_INBOUND_SHARE`` of the giants + tier-2s (the static head of the
    #: contributing list); the stub tail is gathered per seed by kind code.
    head_share: np.ndarray


#: Statics by variant (the config's ``repr`` at seed 0), least recently
#: used first, shared by every world built from the variant.
_STATICS: OrderedDict[str, _Statics] = OrderedDict()
_STATICS_LIMIT = 8


def _statics_for(config: OffloadWorldConfig) -> _Statics:
    """The shared statics of ``config``'s variant (built on first use).

    Pop and re-insert rather than look up and move: no step fails when
    another thread evicts the entry in between.
    """
    key = repr(replace(config, seed=0))
    statics = _STATICS.pop(key, None)
    if statics is None:
        statics = _build_statics(config)
    _STATICS[key] = statics
    while len(_STATICS) > _STATICS_LIMIT:
        _STATICS.pop(next(iter(_STATICS)), None)
    return statics


def _build_statics(config: OffloadWorldConfig) -> _Statics:
    cfg = config
    make = _ScaffoldAS
    tier1s = [
        make(ASN(_TIER1_BASE + i), f"tier1-{i}", NetworkKind.TIER1,
             PeeringPolicy.RESTRICTIVE, 2 ** 22)
        for i in range(cfg.tier1_count)
    ]
    rediris = make(ASN(_REDIRIS_ASN), "rediris", NetworkKind.NREN,
                   PeeringPolicy.SELECTIVE, 2 ** 20)
    geant = make(ASN(_GEANT_ASN), "geant-like", NetworkKind.NREN,
                 PeeringPolicy.SELECTIVE, 2 ** 18)
    nrens = [
        make(ASN(_NREN_BASE + i), f"nren-{i}", NetworkKind.NREN,
             PeeringPolicy.SELECTIVE, 2 ** 17)
        for i in range(cfg.nren_count)
    ]
    giants = [
        make(ASN(_GIANT_BASE + i), name,
             NetworkKind.CDN if i % 2 else NetworkKind.CONTENT, policy,
             2 ** 19)
        for i, (name, policy) in enumerate(_GIANTS)
    ]
    # CDNs RedIRIS already peers with — their traffic is not transit.
    cdns = [
        make(ASN(2101 + i), f"peered-cdn-{i}", NetworkKind.CDN,
             PeeringPolicy.OPEN, 2 ** 17)
        for i in range(6)
    ]
    scaffold = (*tier1s, rediris, geant, *nrens, *giants, *cdns)
    t1 = [row.asn for row in tier1s]

    tier2s = [ASN(_TIER2_BASE + i) for i in range(cfg.tier2_count)]
    stub_count = cfg.contributing_count - len(_GIANTS) - cfg.tier2_count
    stubs = [ASN(_STUB_BASE + i) for i in range(stub_count)]
    contributing = [*(row.asn for row in giants), *tier2s, *stubs]
    all_asns = np.array(
        [*(row.asn for row in scaffold), *tier2s, *stubs], dtype=np.int64
    )
    contrib_ids = np.searchsorted(all_asns, contributing)
    contributes = np.zeros(all_asns.size, dtype=bool)
    contributes[contrib_ids] = True

    scaffold_policy = np.full(_TIER2_BASE, -1, dtype=np.int8)
    for row in scaffold:
        scaffold_policy[row.asn] = _POLICY_CODE[row.policy]
    base_space = np.concatenate([
        np.array([float(row.space) for row in scaffold]),
        np.full(cfg.tier2_count, float(2 ** 16)),
        np.full(stub_count, 256.0),
    ])
    stub_offset = base_space.size - stub_count
    carrier_static = np.zeros(base_space.size, dtype=bool)
    carrier_static[: len(scaffold)] = [
        row.kind is NetworkKind.TIER1 for row in scaffold
    ]
    carrier_static[len(scaffold): stub_offset] = True
    head_share = np.concatenate([
        np.array([_INBOUND_SHARE[row.kind] for row in giants]),
        np.full(cfg.tier2_count, _INBOUND_SHARE[NetworkKind.TRANSIT]),
    ])
    statics = _Statics(
        scaffold=scaffold,
        tier1s=tuple(t1),
        rediris=rediris.asn,
        geant=geant.asn,
        nrens=tuple(row.asn for row in nrens),
        giants=tuple(row.asn for row in giants),
        direct_peer_cdns=tuple(row.asn for row in cdns),
        scaffold_customers=np.array([
            (rediris.asn, t1[0]), (rediris.asn, t1[1]),
            *((row.asn, geant.asn) for row in nrens),
            *((row.asn, t1[i % len(t1)]) for i, row in enumerate(cdns)),
        ], dtype=np.int64),
        scaffold_peers=(
            *((a, b) for i, a in enumerate(t1) for b in t1[i + 1:]),
            (rediris.asn, geant.asn), (geant.asn, t1[2]),
            *((rediris.asn, row.asn) for row in cdns),
        ),
        euroix=euroix_catalog(),
        contributing=contributing,
        contrib_index={a: i for i, a in enumerate(contributing)},
        contrib_arange=np.arange(len(contributing), dtype=np.int32),
        all_asns=all_asns,
        contrib_ids=contrib_ids,
        contributes=contributes,
        scaffold_policy=scaffold_policy,
        base_space=base_space,
        carrier_static=carrier_static,
        stub_offset=stub_offset,
        head_share=head_share,
    )
    for value in vars(statics).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return statics


class ASLevel(NamedTuple):
    """A world's AS level as index arrays (:meth:`OffloadWorld.as_level`).

    AS ``i`` is ``asns[i]`` (ascending), named ``names[i]``, of kind
    ``kinds[i]``.  Edge ``e`` runs from ``customer[e]`` up to its
    provider ``provider[e]``; each peering is one row of ``peers``.
    Every entry of the three edge arrays is an index into ``asns``.
    """

    asns: np.ndarray
    names: list[str]
    kinds: list[NetworkKind]
    customer: np.ndarray
    provider: np.ndarray
    peers: np.ndarray


class _Memberships:
    """``OffloadWorld.memberships``: IXP acronym → member ASNs.

    Built in catalog order from the drawn member arrays on first read.
    Assigning it, as ``dataclasses.replace(world, memberships=...)``
    does, narrows the world's member arrays to the given seats, which
    must be drawn ones.
    """

    def __get__(self, world, owner=None):
        if world is None:
            return None  # the field default: the drawn memberships
        if world._seats is None:
            drawn = world._drawn
            world._seats = {
                spec.acronym: frozenset(drawn.asns[
                    drawn.members_at(drawn.row_of(spec.acronym))
                ].tolist())
                for spec in world.euroix
            }
        return world._seats

    def __set__(self, world, memberships) -> None:
        world._seats = memberships
        world._members = (
            world._drawn if memberships is None
            else world._drawn.select(memberships)
        )


@dataclass(eq=False)
class OffloadWorld:
    """One seed's offload world (see the module docstring).

    The studies read :meth:`member_arrays`, the traffic matrix and the
    collector's aggregate rates, and :attr:`address_space`; Figure 6
    reads :meth:`as_level`.
    """

    config: OffloadWorldConfig
    rediris: ASN
    transit_providers: tuple[ASN, ASN]
    tier1s: tuple[ASN, ...]
    geant: ASN
    nrens: tuple[ASN, ...]
    giants: tuple[ASN, ...]
    direct_peer_cdns: tuple[ASN, ...]
    euroix: tuple[EuroIXSpec, ...]
    contributing: list[ASN]
    matrix: TrafficMatrix
    collector: FlowCollector
    #: Final announced space of every AS, in ascending-ASN order.
    address_space: np.ndarray
    _statics: _Statics
    _drawn: MemberArrays
    memberships: dict[str, frozenset[ASN]] = _Memberships()

    # -- the array surface of repro.core.offload -----------------------------

    def member_arrays(self) -> MemberArrays:
        """The memberships and the member cones as index arrays."""
        return self._members

    def member_all_cones(self) -> tuple[np.ndarray, np.ndarray]:
        """Member cones over every AS, as a CSR of ascending-ASN ids.

        Rows follow :meth:`member_arrays`; Figure 10's address metric
        counts every AS in a cone, not only the contributing ones.  A row
        is the member's contributing cone plus the networks in it that do
        not contribute: the member itself when it is a tier-1 or RedIRIS,
        and its non-contributing scaffold customers.
        """
        members = self.member_arrays()
        st = self._statics
        ids = np.searchsorted(st.all_asns, members.asns)
        own = np.flatnonzero(~st.contributes[ids])
        customer, provider = st.scaffold_customers.T
        seated = np.isin(provider, members.asns)
        owner = np.concatenate([
            np.repeat(np.arange(members.asns.size),
                      np.diff(members.cone_indptr)),
            own,
            np.searchsorted(members.asns, provider[seated]),
        ])
        column = np.concatenate([
            st.contrib_ids[members.cone_indices],
            ids[own],
            np.searchsorted(st.all_asns, customer[seated]),
        ])
        order = np.lexsort((column, owner))
        return (
            csr_indptr(np.bincount(owner, minlength=members.asns.size)),
            column[order],
        )

    def contributing_index(self, asn: ASN) -> int | None:
        """Index of ``asn`` in the contributing arrays, or None."""
        return self._statics.contrib_index.get(asn)

    def total_address_space(self) -> float:
        """Announced space of the whole world (Figure 10's 2.6 B)."""
        return float(self.address_space.sum())

    def as_level(self) -> ASLevel:
        """Every AS's name, kind and edges, from a re-run of the tier
        stages (the same streams, so the drawn edges)."""
        return _OffloadBuilder(self.config, self._statics).as_level()


# ---------------------------------------------------------------------------


def build_offload_world(
    config: OffloadWorldConfig | None = None,
) -> OffloadWorld:
    """Generate the offload world deterministically from ``config.seed``."""
    return build_offload_views([config or OffloadWorldConfig()])[0]


def build_offload_views(
    configs: Sequence[OffloadWorldConfig],
) -> list[OffloadWorld]:
    """Realize one world per config, sharing statics per variant.

    Configs differing only in ``seed`` share one :class:`_Statics`
    (:func:`_statics_for`); each seed then runs the stages over the
    shared scaffold, in config order, so every world equals
    ``build_offload_world`` on its config.  The studies pass one config
    at a time: the economics study calls it by this name for the
    benchmark's layer trace.
    """
    # Each seed allocates ~10⁵ short-lived arrays; collections fired
    # mid-batch would scan the shared statics for nothing.
    with paused_gc():
        return [
            _OffloadBuilder(config, _statics_for(config)).build()
            for config in configs
        ]


class _OffloadBuilder:
    """One seed's draw program (see the module docstring), as arrays.

    :meth:`build` runs every stage in the documented order;
    :meth:`as_level` re-runs the tier stages alone to lay out a world's
    networks and edges.  ``repro lint --draw-programs`` inventories this
    class.
    """

    def __init__(self, config: OffloadWorldConfig, statics: _Statics) -> None:
        self.config = config
        self._static = statics
        self._mega_count = min(config.mega_carrier_count, config.tier2_count)

    def _stage_rng(self, stage: str) -> np.random.Generator:
        """The child stream for one build stage."""
        return child_rng(self.config.seed, "offload", stage)

    # -- realization ----------------------------------------------------------

    def build(self) -> OffloadWorld:
        """Realize this seed: the documented stage order."""
        cfg = self.config
        st = self._static
        self._build_tiers()
        matrix = self._build_traffic()
        members = self._build_memberships()
        address_space = self._scale_address_space()
        return OffloadWorld(
            config=cfg,
            rediris=st.rediris,
            transit_providers=(st.tier1s[0], st.tier1s[1]),
            tier1s=st.tier1s,
            geant=st.geant,
            nrens=st.nrens,
            giants=st.giants,
            direct_peer_cdns=st.direct_peer_cdns,
            euroix=st.euroix,
            contributing=st.contributing,
            matrix=matrix,
            collector=FlowCollector(matrix=matrix, days=cfg.days),
            address_space=address_space,
            _statics=st,
            _drawn=MemberArrays.build(
                members, self._member_policies, self._member_cones
            ),
        )

    def _build_tiers(self) -> None:
        """The giants', tier-2s' and stubs' stages, in draw order."""
        self._build_giants()
        self._tier2_draws = _Tier2Draws.draw(self)
        self._materialize_tier2s(self._tier2_draws)
        self._stub_draws = _StubDraws.draw(self, self._static.tier1s)
        self._materialize_stubs(self._stub_draws)

    # -- drawn tiers, as edge arrays in index space ---------------------------

    def _build_giants(self) -> None:
        keys = self._stage_rng("giants").random(
            (len(_GIANTS), self.config.tier1_count)
        )
        self._giant_tier1_picks = np.argsort(keys, axis=1)[:, :2]

    def _materialize_tier2s(self, draws: _Tier2Draws) -> None:
        # Uplink edges as (tier-2 index, tier-1 index) pairs.
        col = np.arange(draws.uplink_order.shape[1])
        take = col[None, :] < draws.uplink_count[:, None]
        self._tier2_uplink_cust = np.repeat(
            np.arange(self.config.tier2_count), draws.uplink_count
        )
        self._tier2_uplink_prov = draws.uplink_order[take]

    def _materialize_stubs(self, draws: _StubDraws) -> None:
        # Row selections are index takes (``np.flatnonzero`` first): the
        # same elements in the same order as boolean masks, at a fraction
        # of their cost.
        cfg = self.config
        big = draws.big_eyeball
        tier1_only = draws.tier1_only
        normal = ~big & ~tier1_only
        self._big_pos = np.flatnonzero(big)
        self._t1o_pos = np.flatnonzero(tier1_only)

        # Big eyeballs: two tier-1s each, often plus one mega-carrier.
        self._eyeball_t1 = draws.eyeball_order[:, :2]
        self._eyeball_homed = draws.eyeball_mega_homed & (self._mega_count > 0)
        self._eyeball_mega_cust = self._big_pos[self._eyeball_homed]
        self._eyeball_mega_prov = (
            draws.eyeball_mega_pick_u[self._eyeball_homed] * self._mega_count
        ).astype(np.int64)

        # Tier-1-only stubs: 1-3 distinct tier-1s by ascending key.
        t1o_counts = np.minimum(draws.provider_count[self._t1o_pos], 3)
        col = np.arange(draws.tier1_only_order.shape[1])
        take = col[None, :] < t1o_counts[:, None]
        self._t1o_cust = np.repeat(self._t1o_pos, t1o_counts)
        self._t1o_t1 = draws.tier1_only_order.ravel()[np.flatnonzero(take)]

        # Normal stubs: providers from the mega / regional / global tier-2
        # pool chosen by the homing-pool uniform, indices by
        # floor(u * len), in tier-2 *index* space (pool position == tier-2
        # index for the mega and global pools; the regional pools
        # concatenate index runs).
        normal_pos = np.flatnonzero(normal)
        region_codes = draws.region_idx[normal_pos]
        tier2_region_idx = self._tier2_draws.region_idx
        local_members = [
            np.flatnonzero(tier2_region_idx == r)
            for r in range(len(_REGIONS))
        ]
        local_sizes = np.array([len(m) for m in local_members])
        local_concat = np.concatenate(local_members)
        local_offsets = np.concatenate(([0], np.cumsum(local_sizes)[:-1]))
        mega_count = self._mega_count
        u = draws.pool_u[normal_pos]
        local_len = local_sizes[region_codes]
        cat_mega = (u < 0.15) & (mega_count > 0)
        cat_local = ~cat_mega & (u < 0.85) & (local_len > 0)
        pool_len = np.where(
            cat_mega, mega_count,
            np.where(cat_local, local_len, cfg.tier2_count),
        )
        counts = draws.provider_count[normal_pos]
        idx = np.minimum(
            (draws.pick_u * pool_len[:, None]).astype(np.int64),
            np.maximum(pool_len[:, None] - 1, 0),
        )
        # Mega and global pool positions are tier-2 indices already; only
        # the regional picks map through their pool.
        provider_mat = idx.copy()
        local = np.flatnonzero(cat_local)
        provider_mat[local] = local_concat[
            local_offsets[region_codes[local], None] + idx[local]
        ]
        # Per-row dedupe (<= 3 picks): repeated draws of one provider
        # collapse to a single edge.
        col = np.arange(3)
        take = col[None, :] < counts[:, None]
        take[:, 1] &= provider_mat[:, 1] != provider_mat[:, 0]
        take[:, 2] &= (provider_mat[:, 2] != provider_mat[:, 0]) & (
            provider_mat[:, 2] != provider_mat[:, 1]
        )
        self._normal_cust = np.repeat(normal_pos, take.sum(axis=1))
        self._normal_prov = provider_mat.ravel()[np.flatnonzero(take)]

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

    # -- traffic ------------------------------------------------------------------

    def _build_traffic(self) -> TrafficMatrix:
        """Traffic calibrated to Figures 5a/6.

        Pipeline: double-Pareto totals → regional bias (Spanish NREN
        traffic is EU/NA-heavy) → pin the content giants onto their
        reserved top ranks → pin the rest of the head onto tier-1-only
        eyeballs (the never-offloadable mass) → split in/out by business
        type and normalise the direction totals.  The inbound shares are
        gathered by kind *code* from tables built from ``_INBOUND_SHARE``.
        """
        cfg = self.config
        traffic_cfg = cfg.traffic or TrafficMatrixConfig(seed=cfg.seed)
        rng = child_rng(cfg.seed, "traffic")
        count = cfg.contributing_count
        totals = rank_profile_totals(count, traffic_cfg, rng)
        totals = totals[rng.permutation(count)]
        totals = totals * self._region_multipliers()

        self._pin_giants(totals)
        self._pin_head_to_tier1_only(totals, rng)

        draws = self._stub_draws
        stub_share = _SHARE_BY_SLOT[draws.kind_idx]
        stub_share[draws.big_eyeball] = _ACCESS_SHARE
        base_share = np.concatenate([self._static.head_share, stub_share])
        return split_totals_by_kind(
            totals, None, traffic_cfg, rng, base_share=base_share
        )

    def _region_multipliers(self) -> np.ndarray:
        # contributing = [giants (all north_america), tier-2s, stubs]; the
        # tier regional codes come straight from the stage draws.
        return np.concatenate([
            np.full(len(_GIANTS), _REGION_TRAFFIC_MULTIPLIER["north_america"]),
            _REGION_MULT_TABLE[self._tier2_draws.region_idx],
            _REGION_MULT_TABLE[self._stub_draws.region_idx],
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
        self, totals: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Seat tier-1-only eyeballs on the non-giant head ranks.

        The paper's maximum offload sits near 25–33% because the largest
        transit counterparties are broadband/content networks that peer
        nowhere RedIRIS can reach; pinning them to tier-1-only stubs (whose
        cones no candidate peer carries) reproduces that ceiling.  The
        pool is weighted by region (EU/NA eyeballs carry the head) and by
        business type: content-ish kinds keep the unreachable head
        inbound-heavy, so the *offloadable* remainder is outbound-tilted
        as in the paper (27% inbound vs 33% outbound at 65 IXPs).
        ``weighted_top_k`` consumes ``len(pool)`` uniforms.
        """
        cfg = self.config
        if not self._t1o_pos.size:
            return
        draws = self._stub_draws
        giant_count = len(_GIANTS)
        pool = giant_count + cfg.tier2_count + self._t1o_pos
        tier1_only = np.zeros(len(totals), dtype=bool)
        tier1_only[pool] = True
        kind_weights = _KIND_WEIGHT_BY_SLOT[draws.kind_idx[self._t1o_pos]]
        weights = (
            _REGION_MULT_TABLE[draws.region_idx[self._t1o_pos]] * kind_weights
        )
        draw_count = min(cfg.head_pin_count, pool.size)
        picks = weighted_top_k(rng, weights, draw_count)
        # Seat the picks content-first: the heaviest head ranks go to the
        # most content-ish eyeballs (stable within equal kind weight).  The
        # very top rank can hold >15% of all transit mass, so leaving its
        # business type to chance made the in/out offload split swing
        # wildly across seeds; Figure 6's top contributors are
        # endpoint-dominant content networks, not broadband eyeballs.
        picks = picks[np.argsort(-kind_weights[picks], kind="stable")]
        chosen = iter(pool[picks].tolist())
        order = np.argsort(totals)[::-1]
        giant_rank_set = set(_GIANT_RANKS[:giant_count])
        pinned: set[int] = set()
        for rank in range(1, cfg.head_pin_count + 1):
            if rank in giant_rank_set:
                continue
            holder = int(order[rank - 1])
            if holder < giant_count or holder in pinned:
                continue  # a giant or an already-pinned eyeball holds it
            if tier1_only[holder]:
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

    # -- memberships --------------------------------------------------------------

    def _build_memberships(self) -> dict[str, np.ndarray]:
        """Draw the 65 IXPs' member lists from regional pools.

        The IXP-goers — the giants, the member tier-2s and the IXP-goer
        stubs — are one ascending-ASN array with region codes, propensity
        weights and a global flag, read straight off the stage draws; a
        pool is a mask over it.  Returns each IXP's members as an
        ascending ASN array, in catalog order.
        """
        st = self._static
        draws = self._stub_draws
        tier2_weights = self._tier2_propensities()
        member_tier2s = len(tier2_weights)
        mega_count = self._mega_count
        goer_stubs = np.flatnonzero(
            ~draws.big_eyeball & ~draws.tier1_only & draws.ixpgoer
        )
        # Non-mega member tier-2s go global with probability 0.18.
        global_u = self._stage_rng("globals").random(
            member_tier2s - mega_count
        )
        goer_asns = np.concatenate([
            np.asarray(st.giants, dtype=np.int64),
            _TIER2_BASE + np.arange(member_tier2s, dtype=np.int64),
            _STUB_BASE + goer_stubs,
        ])
        goer_regions = np.concatenate([
            np.full(len(st.giants), _REGIONS.index("north_america")),
            self._tier2_draws.region_idx[:member_tier2s],
            draws.region_idx[goer_stubs],
        ])
        goer_weights = np.concatenate([
            np.full(len(st.giants), 50.0),  # giants are at every big IXP
            tier2_weights,
            draws.propensity[goer_stubs],
        ])
        goer_global = np.concatenate([
            np.ones(len(st.giants) + mega_count, dtype=bool),
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
        for spec in st.euroix:
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
            members.get("ESpanix", none), [*st.tier1s, st.rediris]
        )
        members["CATNIX"] = np.union1d(members.get("CATNIX", none), [st.rediris])
        return members

    # -- address space --------------------------------------------------------------

    def _scale_address_space(self) -> np.ndarray:
        """Scale announced space so the world totals ~2.6 B addresses.

        Big eyeballs end up holding ``big_eyeball_space_share`` of all
        space — the real IPv4 Internet concentrates its addresses in a few
        hundred broadband networks, and Figure 10's steep first-IXP drop
        depends on that concentration.  Multipliers are drawn as one array
        per kind class over the ascending-ASN layout, in the order the
        module docstring documents.  Returns the final space per AS.
        """
        cfg = self.config
        st = self._static
        rng = self._stage_rng("addrspace")
        draws = self._stub_draws
        space = st.base_space.copy()
        count = space.size

        big_mask = np.zeros(count, dtype=bool)
        big_mask[st.stub_offset + self._big_pos] = True
        # Big-eyeball slots are forced ACCESS kind; both masks exclude them.
        access_mask = np.zeros(count, dtype=bool)
        access_mask[st.stub_offset:] = _KIND_IS_ACCESS[draws.kind_idx]
        access_mask &= ~big_mask
        carrier_mask = st.carrier_static.copy()
        carrier_mask[st.stub_offset:] = _KIND_IS_TRANSIT[draws.kind_idx]
        carrier_mask &= ~big_mask

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
        if self._big_pos.size:
            per_eyeball_weight = rng.lognormal(
                0.0, 0.8, size=self._big_pos.size
            )
            per_eyeball_weight /= per_eyeball_weight.sum()
            big_positions = np.flatnonzero(big_mask)  # ascending ASN order
            space[big_positions] = np.maximum(
                1.0, np.floor(big_total_target * per_eyeball_weight)
            )
        scale = cfg.total_address_space / float(space.sum())
        return np.maximum(1, np.floor(space * scale).astype(np.int64))

    # -- member arrays from the drawn edges -----------------------------------

    def _member_cones(self, asns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Member cone CSR over contributing indices, from the edge draws.

        ``int32``, ascending, the owner's own contributing index included.
        The provider DAG is three levels deep, so tier-2 cones are one
        sorted CSR build, tier-1 cones one gather over their customer
        tier-2s' segments, and giants and stubs (no customers) are their
        own singletons.
        """
        cfg = self.config
        st = self._static
        giant_count = len(st.giants)
        n2 = cfg.tier2_count
        base = giant_count + n2
        total = cfg.contributing_count
        stub_count = total - base

        # stub → tier-2 edges in contributing-index space.
        cust2 = np.concatenate([
            base + self._normal_cust, base + self._eyeball_mega_cust,
        ])
        prov2 = np.concatenate([self._normal_prov, self._eyeball_mega_prov])
        order = np.argsort(prov2 * np.int64(total) + cust2)
        member_counts = np.bincount(prov2, minlength=n2)
        seg_len = member_counts + 1
        seg_start = np.concatenate(([0], np.cumsum(seg_len)))[:-1]
        values = np.empty(int(seg_len.sum()), dtype=np.int32)
        values[seg_start] = giant_count + np.arange(n2)
        # The k-th sorted edge sits after its provider's own slot and the
        # own slots of every lower provider.
        values[np.arange(order.size) + prov2[order] + 1] = cust2[order]

        # tier-1 cones: direct contributing customers + the cones of their
        # customer tier-2s (which carry the transitive stub members).
        direct_cust = np.concatenate([
            np.repeat(np.arange(giant_count), 2),
            giant_count + self._tier2_uplink_cust,
            base + np.repeat(self._big_pos, 2),
            base + self._t1o_cust,
        ])
        direct_prov = np.concatenate([
            self._giant_tier1_picks.ravel(),
            self._tier2_uplink_prov,
            self._eyeball_t1.ravel(),
            self._t1o_t1,
        ])
        seg_lens = seg_len[self._tier2_uplink_cust]
        indirect_cust = gather_runs(
            values, seg_start[self._tier2_uplink_cust], seg_lens
        )
        indirect_prov = np.repeat(self._tier2_uplink_prov, seg_lens)
        # Dedup by scatter: one (tier-1, member) bitmap, read back
        # row-major as the sorted unique members of each tier-1.
        tier1_count = len(st.tier1s)
        covered = np.zeros((tier1_count, total), dtype=bool)
        covered[
            np.concatenate([direct_prov, indirect_prov]),
            np.concatenate([direct_cust, indirect_cust]),
        ] = True
        tier1_len = np.count_nonzero(covered, axis=1)
        tier1_values = np.flatnonzero(covered) - np.repeat(
            np.arange(tier1_count) * total, tier1_len
        )

        # One source array: singletons | tier-2 segments | tier-1 cones.
        source = np.concatenate([
            st.contrib_arange, values, tier1_values.astype(np.int32),
        ])
        starts = np.zeros(asns.size, dtype=np.int64)
        lengths = np.zeros(asns.size, dtype=np.int64)
        for first, count, block_starts, block_lengths in (
            (_GIANT_BASE, giant_count, np.arange(giant_count), 1),
            (_TIER2_BASE, n2, total + seg_start, seg_len),
            (_STUB_BASE, stub_count, base + np.arange(stub_count), 1),
            (_TIER1_BASE, tier1_count,
             total + values.size + np.cumsum(tier1_len) - tier1_len,
             tier1_len),
        ):
            offset = asns - first
            hit = (offset >= 0) & (offset < count)
            starts[hit] = block_starts[offset[hit]]
            lengths[hit] = np.broadcast_to(block_lengths, count)[offset[hit]]
        return csr_indptr(lengths), gather_runs(source, starts, lengths)

    def _member_policies(self, asns: np.ndarray) -> np.ndarray:
        """Member policy codes: stub and tier-2 draws, scaffold table."""
        stub = asns >= _STUB_BASE
        tier2 = ~stub & (asns >= _TIER2_BASE)
        rest = ~stub & ~tier2
        codes = np.empty(asns.size, dtype=np.int8)
        codes[stub] = self._stub_draws.policy_codes()[asns[stub] - _STUB_BASE]
        codes[tier2] = self._tier2_draws.policy_codes(
            self.config.mega_carrier_count
        )[asns[tier2] - _TIER2_BASE]
        codes[rest] = self._static.scaffold_policy[asns[rest]]
        return codes

    # -- the AS level -----------------------------------------------------------

    def as_level(self) -> ASLevel:
        """Re-runs the tier stages and lays out every AS and edge.

        The edges are the scaffold's, the giants' two tier-1s, the tier-2
        uplinks, each big eyeball's two tier-1s and mega-carrier, the
        tier-1-only stubs' tier-1s and the normal stubs' tier-2s.
        """
        self._build_tiers()
        st = self._static
        tier1 = np.array(st.tier1s, dtype=np.int64)
        stubs = self._stub_draws
        customer = np.concatenate([
            st.scaffold_customers[:, 0],
            np.repeat(np.asarray(st.giants, dtype=np.int64), 2),
            _TIER2_BASE + self._tier2_uplink_cust,
            _STUB_BASE + np.concatenate([
                np.repeat(self._big_pos, 2), self._eyeball_mega_cust,
                self._t1o_cust, self._normal_cust,
            ]),
        ])
        provider = np.concatenate([
            st.scaffold_customers[:, 1],
            tier1[self._giant_tier1_picks].ravel(),
            tier1[self._tier2_uplink_prov],
            tier1[self._eyeball_t1].ravel(),
            _TIER2_BASE + self._eyeball_mega_prov,
            tier1[self._t1o_t1],
            _TIER2_BASE + self._normal_prov,
        ])
        asns = st.all_asns
        return ASLevel(
            asns=asns,
            names=[
                *(row.name for row in st.scaffold),
                *(f"transit-{_REGIONS[r]}-{i}" for i, r in
                  enumerate(self._tier2_draws.region_idx.tolist())),
                *(f"stub-{_REGIONS[r]}-{i}"
                  for i, r in enumerate(stubs.region_idx.tolist())),
            ],
            kinds=[
                *(row.kind for row in st.scaffold),
                *[NetworkKind.TRANSIT] * self.config.tier2_count,
                *(NetworkKind.ACCESS if big else _STUB_KINDS[k]
                  for big, k in zip(stubs.big_eyeball.tolist(),
                                    stubs.kind_idx.tolist())),
            ],
            customer=np.searchsorted(asns, customer),
            provider=np.searchsorted(asns, provider),
            peers=np.searchsorted(
                asns, np.array(st.scaffold_peers, dtype=np.int64)
            ),
        )


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
    def draw(
        cls, builder: _OffloadBuilder, tier1s: Sequence[ASN]
    ) -> "_StubDraws":
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
