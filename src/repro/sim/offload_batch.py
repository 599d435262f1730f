"""Trial-batch realization of the offload world: k seeds, one array program.

``build_offload_views`` realizes a whole seed batch of offload worlds for
the trial-batch engine (``StudyConfig.trial_batch``).  The batch is
struct-of-arrays over the trial axis: everything seed-independent — the
ASN universe, the Euro-IX catalog, tier-2 propensities, the scaffold
address-space/kind layout — is computed once per variant
(:class:`_BatchStatics`), and each seed stacks only its drawn arrays on
top.  Per seed the realization skips everything the study measures never
read: no :class:`~repro.bgp.relationships.ASGraph`, no
``AutonomousSystem`` objects, no route computation, no routing table —
the ~0.3 s of per-trial work that made 16-trial ensembles cost seconds.

Draw-program contract (the bit-identity invariant)
--------------------------------------------------
The batched realizer must be **bit-identical per seed** to the
single-world builder, so it cannot widen the random draws themselves: a
``(k, ...)`` stage block is realized as k parallel *per-seed* child
streams (:func:`repro.rand.batch_child_rngs`), each consumed in exactly
the documented order of :mod:`repro.sim.offload_world`.  Concretely,
:class:`_BatchSeedBuilder` subclasses the single-world
``_OffloadBuilder`` and *inherits* the draw-bearing stages verbatim
(``_build_traffic``, ``_build_memberships``, the ``_Tier2Draws`` /
``_StubDraws`` stage draws); the stages it overrides (giants, tier-2 /
stub materialization, address space) consume the same streams with the
same array shapes in the same order, which ``repro lint
--draw-programs`` verifies statically as the ``batched`` engine next to
the single-world ``vectorized`` one.

Memberships and customer cones as arrays
----------------------------------------
A view carries what :mod:`repro.core.offload` reads as index arrays
(:class:`~repro.sim.offload_world.MemberArrays`): the IXP membership
table, a policy code per member and the member cones as a CSR over
contributing indices.  The ``memberships`` frozenset dict is built from
them only when something asks for it.

The graph world derives its cone tables from a Kahn level order over the
full provider DAG.  The topology is only three levels deep (tier-1 ←
tier-2 ← stub), so the batch path builds the member cones directly from
the drawn edge arrays: one argsort turns the stub→tier-2 edges into
per-tier-2 CSR member lists (own index first — the tier-2's contributing
index is below every stub index, so segments stay ascending), tier-1
cones are the union of their direct contributing customers plus their
customer tier-2s' segments, and giants and stubs are their own
singletons.  The arrays match the graph world's exactly (ascending, own
index included).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.ixp.euroix import EuroIXSpec, euroix_catalog
from repro.netflow.collector import FlowCollector
from repro.netflow.traffic import (
    _INBOUND_SHARE,
    TrafficMatrix,
    TrafficMatrixConfig,
    rank_profile_totals,
    split_totals_by_kind,
)
from repro.rand import child_rng
from repro.rand import weighted_top_k
from repro.sim.offload_world import (
    _GIANT_RANKS,
    _GIANTS,
    _REGION_TRAFFIC_MULTIPLIER,
    _REGIONS,
    _STUB_KINDS,
    POLICY_CODES,
    MemberArrays,
    OffloadWorldConfig,
    _OffloadBuilder,
    _StubDraws,
    _Tier2Draws,
    csr_indptr,
    gather_runs,
)
from repro.types import ASN, NetworkKind, PeeringPolicy

#: First ASN of each numbered block (the single-world builder's layout).
_TIER1_BASE, _GIANT_BASE, _TIER2_BASE, _STUB_BASE = 101, 2001, 3001, 10_001

#: Per-kind-slot lookups so per-seed stub scoring is one gather instead of
#: ~30k dict probes.  Values mirror the reference tables bit-for-bit.
_REGION_MULT_TABLE = np.array(
    [_REGION_TRAFFIC_MULTIPLIER[r] for r in _REGIONS]
)
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


@dataclass
class _BatchStatics:
    """Everything seed-independent, computed once per variant."""

    config_key: str
    tier1s: list[ASN]
    rediris: ASN
    geant: ASN
    nrens: tuple[ASN, ...]
    giants: list[ASN]
    direct_peer_cdns: tuple[ASN, ...]
    tier2s: list[ASN]
    stubs: list[int]
    contributing: list
    euroix: tuple[EuroIXSpec, ...]
    mega_carriers: list[ASN]
    giant_kinds: list[NetworkKind]
    #: Policy code by ASN below the tier-2 block (-1: no such network).
    scaffold_policy: np.ndarray
    #: Initial announced space per ASN, ascending-ASN order (stub slots 256).
    base_space: np.ndarray
    #: TIER1/TRANSIT scaffold positions (the non-stub carrier multipliers).
    carrier_static: np.ndarray
    #: Offset of the stub block in the ascending-ASN layout.
    stub_offset: int
    #: Contributing ASN → array index; shared read-only by every seed.
    contrib_index: dict
    #: ``arange(contributing_count, dtype=int32)``: singleton cones.
    contrib_arange: np.ndarray
    #: ``_INBOUND_SHARE`` of the giants + tier-2s (the static head of the
    #: contributing list); the stub tail is gathered per seed by kind code.
    head_share: np.ndarray


def _build_statics(config: OffloadWorldConfig) -> _BatchStatics:
    cfg = config
    giant_count = len(_GIANTS)
    stub_count = cfg.contributing_count - giant_count - cfg.tier2_count
    tier1s = [ASN(_TIER1_BASE + i) for i in range(cfg.tier1_count)]
    rediris = ASN(766)
    geant = ASN(900)
    nrens = tuple(ASN(901 + i) for i in range(cfg.nren_count))
    giants = [ASN(_GIANT_BASE + i) for i in range(giant_count)]
    cdns = tuple(ASN(2101 + i) for i in range(6))
    tier2s = [ASN(_TIER2_BASE + i) for i in range(cfg.tier2_count)]
    stubs = list(range(_STUB_BASE, _STUB_BASE + stub_count))
    giant_kinds = [
        NetworkKind.CDN if i % 2 else NetworkKind.CONTENT
        for i in range(giant_count)
    ]

    static_policy: dict[int, PeeringPolicy] = {
        rediris: PeeringPolicy.SELECTIVE, geant: PeeringPolicy.SELECTIVE,
    }
    static_policy.update(dict.fromkeys(tier1s, PeeringPolicy.RESTRICTIVE))
    static_policy.update(dict.fromkeys(nrens, PeeringPolicy.SELECTIVE))
    static_policy.update(zip(giants, (policy for _, policy in _GIANTS)))
    static_policy.update(dict.fromkeys(cdns, PeeringPolicy.OPEN))
    scaffold_policy = np.full(_TIER2_BASE, -1, dtype=np.int8)
    for asn, policy in static_policy.items():
        scaffold_policy[asn] = POLICY_CODES.index(policy)

    # Ascending-ASN scaffold for the address-space stage: tier-1s, RedIRIS,
    # GÉANT, NRENs, giants, peered CDNs, tier-2s, stubs — the exact order
    # ``ASGraph.ases()`` iterates, which fixes the multiplier draw order.
    blocks = (
        np.full(cfg.tier1_count, float(2 ** 22)),
        np.array([float(2 ** 20), float(2 ** 18)]),
        np.full(cfg.nren_count, float(2 ** 17)),
        np.full(giant_count, float(2 ** 19)),
        np.full(6, float(2 ** 17)),
        np.full(cfg.tier2_count, float(2 ** 16)),
        np.full(stub_count, 256.0),
    )
    base_space = np.concatenate(blocks)
    stub_offset = base_space.size - stub_count
    carrier_static = np.zeros(base_space.size, dtype=bool)
    carrier_static[: cfg.tier1_count] = True
    carrier_static[stub_offset - cfg.tier2_count: stub_offset] = True

    contributing = [*giants, *tier2s, *stubs]
    if len(contributing) != cfg.contributing_count:
        raise ConfigurationError(
            f"contributing count {len(contributing)} != "
            f"{cfg.contributing_count}"
        )
    head_share = np.concatenate([
        np.array([_INBOUND_SHARE[k] for k in giant_kinds]),
        np.full(cfg.tier2_count, _INBOUND_SHARE[NetworkKind.TRANSIT]),
    ])
    return _BatchStatics(
        config_key=repr(replace(cfg, seed=0)),
        tier1s=tier1s,
        rediris=rediris,
        geant=geant,
        nrens=nrens,
        giants=giants,
        direct_peer_cdns=cdns,
        tier2s=tier2s,
        stubs=stubs,
        contributing=contributing,
        euroix=euroix_catalog(),
        mega_carriers=tier2s[: cfg.mega_carrier_count],
        giant_kinds=giant_kinds,
        scaffold_policy=scaffold_policy,
        base_space=base_space,
        carrier_static=carrier_static,
        stub_offset=stub_offset,
        contrib_index={a: i for i, a in enumerate(contributing)},
        contrib_arange=np.arange(len(contributing), dtype=np.int32),
        head_share=head_share,
    )


@dataclass
class OffloadWorldView:
    """One seed's lightweight world: the exact surface the measures read.

    Duck-types :class:`~repro.sim.offload_world.OffloadWorld` for
    ``PeerGroups.build``, :class:`OffloadEstimator`, the greedy expansion
    and the economics collector arithmetic, all of which read the
    :meth:`member_arrays` index arrays.  Values are bit-identical to the
    built world's; what is *absent* is the graph, AS paths and the
    routing table (``collector.flow_records`` raises — no study measure
    calls it).  The ``memberships`` frozenset dict is built from the
    member arrays on first access only.
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
    contributing: list
    matrix: TrafficMatrix
    collector: FlowCollector
    _members: MemberArrays
    _contrib_index: dict
    _address_space: np.ndarray
    _memberships: dict[str, frozenset[ASN]] | None = None

    @property
    def memberships(self) -> dict[str, frozenset[ASN]]:
        """IXP acronym → member ASNs (built on first access)."""
        if self._memberships is None:
            members = self._members
            self._memberships = {
                acronym: frozenset(
                    members.asns[members.members_at(row)].tolist()
                )
                for row, acronym in enumerate(members.ixps)
            }
        return self._memberships

    def member_arrays(self) -> MemberArrays:
        """The memberships and the member cones as index arrays."""
        return self._members

    def contributing_index(self, asn: ASN) -> int | None:
        """Index of ``asn`` in the contributing arrays, or None."""
        return self._contrib_index.get(asn)

    def total_address_space(self) -> float:
        """Announced space of the whole world (Figure 10's 2.6 B)."""
        return float(self._address_space.sum())

    def address_space_by_asn(self) -> np.ndarray:
        """Final announced space, ascending-ASN order (tests compare it)."""
        return self._address_space


class _BatchSeedBuilder(_OffloadBuilder):
    """One seed of a trial batch, drawn like a single world, built as arrays.

    Inherits the draw-bearing stages (traffic, memberships) and the stage
    draws from the single-world builder; the overridden stages consume
    identical streams but materialize index arrays instead of graph
    objects.  ``repro lint --draw-programs`` inventories this class as
    the ``batched`` engine and fails on any stream divergence.
    """

    def __init__(
        self, config: OffloadWorldConfig, statics: _BatchStatics
    ) -> None:
        super().__init__(config)
        self._static = statics

    # -- overridden stages (same draws, array materialization) ----------------

    def _build_giants(self, tier1s: list[ASN]) -> list[ASN]:
        keys = self._stage_rng("giants").random((len(_GIANTS), len(tier1s)))
        self._giant_tier1_picks = np.argsort(keys, axis=1)[:, :2]
        self._giant_kinds = list(self._static.giant_kinds)
        return self._static.giants

    def _materialize_tier2s(
        self, tier1s: list[ASN], draws: _Tier2Draws
    ) -> list[ASN]:
        cfg = self.config
        self.mega_carriers = list(self._static.mega_carriers)
        # Uplink edges in (tier-2 index, tier-1 index) space for the cones.
        col = np.arange(draws.uplink_order.shape[1])
        take = col[None, :] < draws.uplink_count[:, None]
        self._tier2_uplink_cust = np.repeat(
            np.arange(cfg.tier2_count), draws.uplink_count
        )
        self._tier2_uplink_prov = draws.uplink_order[take]
        return self._static.tier2s

    def _materialize_stubs(
        self, tier1s: list[ASN], tier2s: list[ASN], draws: _StubDraws
    ) -> list[int]:
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
        if self.mega_carriers:
            homed = draws.eyeball_mega_homed
            self._eyeball_mega_cust = self._big_pos[homed]
            self._eyeball_mega_prov = (
                draws.eyeball_mega_pick_u[homed] * len(self.mega_carriers)
            ).astype(np.int64)
        else:
            self._eyeball_mega_cust = np.empty(0, dtype=np.int64)
            self._eyeball_mega_prov = np.empty(0, dtype=np.int64)

        # Tier-1-only stubs: 1-3 distinct tier-1s by ascending key.
        t1o_counts = np.minimum(draws.provider_count[self._t1o_pos], 3)
        col = np.arange(draws.tier1_only_order.shape[1])
        take = col[None, :] < t1o_counts[:, None]
        self._t1o_cust = np.repeat(self._t1o_pos, t1o_counts)
        self._t1o_t1 = draws.tier1_only_order.ravel()[np.flatnonzero(take)]

        # Normal stubs: the single-world builder's pool arithmetic, but in
        # tier-2 *index* space (pool position == tier-2 index for the mega
        # and global pools; the regional pools concatenate index runs).
        normal_pos = np.flatnonzero(normal)
        region_codes = draws.region_idx[normal_pos]
        tier2_region_idx = self._tier2_draws.region_idx
        local_members = [
            np.flatnonzero(tier2_region_idx == r)
            for r in range(len(_REGIONS))
        ]
        local_sizes = np.array([len(m) for m in local_members])
        local_concat = (
            np.concatenate(local_members)
            if cfg.tier2_count else np.empty(0, dtype=np.int64)
        )
        local_offsets = np.concatenate(([0], np.cumsum(local_sizes)[:-1]))
        mega_count = len(self.mega_carriers)
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
        # Per-row dedupe (<= 3 picks): index equality is ASN equality.
        col = np.arange(3)
        take = col[None, :] < counts[:, None]
        take[:, 1] &= provider_mat[:, 1] != provider_mat[:, 0]
        take[:, 2] &= (provider_mat[:, 2] != provider_mat[:, 0]) & (
            provider_mat[:, 2] != provider_mat[:, 1]
        )
        self._normal_cust = np.repeat(normal_pos, take.sum(axis=1))
        self._normal_prov = provider_mat.ravel()[np.flatnonzero(take)]
        return self._static.stubs

    def _pin_head_to_tier1_only(
        self, totals: np.ndarray, contributing: list, rng,
        kinds: list[NetworkKind],
    ) -> None:
        """The reference head-pinning with the pool weights as one gather.

        Draw-free relative to the base implementation: ``weighted_top_k``
        consumes exactly ``len(pool)`` uniforms either way, and the weight
        values are the identical float products, so the picks — and
        therefore every downstream draw — are bit-identical.
        """
        cfg = self.config
        if not self._t1o_pos.size:
            return
        draws = self._stub_draws
        giant_count = len(_GIANTS)
        base = giant_count + cfg.tier2_count
        pool = base + self._t1o_pos
        tier1_only = np.zeros(len(contributing), dtype=bool)
        tier1_only[pool] = True
        kind_weights = _KIND_WEIGHT_BY_SLOT[
            draws.kind_idx[self._t1o_pos]
        ]
        weights = (
            _REGION_MULT_TABLE[draws.region_idx[self._t1o_pos]] * kind_weights
        )
        draw_count = min(cfg.head_pin_count, pool.size)
        picks = weighted_top_k(rng, weights, draw_count)
        # Content-first seating, stable within equal kind weight.
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
                continue
            if tier1_only[holder]:
                pinned.add(holder)
                continue
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

    def _build_traffic(self, contributing: list) -> TrafficMatrix:
        """The reference traffic pipeline with the shares as one gather.

        Same stream (``(seed, "traffic")``), same draw order — totals,
        permutation, head-pinning uniforms, split noise.  Only the
        ``_INBOUND_SHARE`` lookup changes representation: the share array
        is gathered by kind *code* from tables built from the same dict,
        so the values (and every downstream float) are bit-identical.
        """
        cfg = self.config
        traffic_cfg = cfg.traffic or TrafficMatrixConfig(seed=cfg.seed)
        rng = child_rng(cfg.seed, "traffic")
        count = len(contributing)
        totals = rank_profile_totals(count, traffic_cfg, rng)
        totals = totals[rng.permutation(count)]
        totals = totals * self._region_multipliers(contributing)

        self._pin_giants(totals)
        self._pin_head_to_tier1_only(totals, contributing, rng, kinds=None)

        draws = self._stub_draws
        stub_share = _SHARE_BY_SLOT[draws.kind_idx]
        stub_share[draws.big_eyeball] = _ACCESS_SHARE
        base_share = np.concatenate([self._static.head_share, stub_share])
        return split_totals_by_kind(
            totals, None, traffic_cfg, rng, base_share=base_share
        )

    def _scale_address_space(self) -> np.ndarray:
        """The reference multiplier draws over the static ASN layout."""
        cfg = self.config
        st = self._static
        rng = self._stage_rng("addrspace")
        draws = self._stub_draws
        space = st.base_space.copy()
        count = space.size

        big_mask = np.zeros(count, dtype=bool)
        big_mask[st.stub_offset + self._big_pos] = True
        stub_access = _KIND_IS_ACCESS[draws.kind_idx]
        stub_transit = _KIND_IS_TRANSIT[draws.kind_idx]
        # Big-eyeball slots are forced ACCESS kind; both masks exclude big
        # slots below exactly as the reference does.
        access_mask = np.zeros(count, dtype=bool)
        access_mask[st.stub_offset:] = stub_access
        access_mask &= ~big_mask
        carrier_mask = st.carrier_static.copy()
        carrier_mask[st.stub_offset:] = stub_transit
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
            big_positions = np.flatnonzero(big_mask)
            space[big_positions] = np.maximum(
                1.0, np.floor(big_total_target * per_eyeball_weight)
            )
        scale = cfg.total_address_space / float(space.sum())
        return np.maximum(1, np.floor(space * scale).astype(np.int64))

    # -- member arrays from the drawn edges ----------------------------------

    def _member_cones(self, asns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Member cone CSR over contributing indices, from the edge draws.

        Matches the graph world's Kahn tables exactly: ``int32``, ascending,
        the owner's own contributing index included.  The provider DAG is
        three levels deep, so tier-2 cones are one sorted CSR build,
        tier-1 cones one gather over their customer tier-2s' segments,
        and giants and stubs (no customers) are their own singletons.
        """
        cfg = self.config
        st = self._static
        giant_count = len(st.giants)
        n2 = cfg.tier2_count
        base = giant_count + n2
        total = base + len(st.stubs)

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
        covered = np.zeros((len(st.tier1s), total), dtype=bool)
        covered[
            np.concatenate([direct_prov, indirect_prov]),
            np.concatenate([direct_cust, indirect_cust]),
        ] = True
        tier1_len = np.count_nonzero(covered, axis=1)
        tier1_values = np.flatnonzero(covered) - np.repeat(
            np.arange(len(st.tier1s)) * total, tier1_len
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
            (_STUB_BASE, len(st.stubs), base + np.arange(len(st.stubs)), 1),
            (_TIER1_BASE, len(st.tier1s),
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

    # -- realization ----------------------------------------------------------

    def build_view(self) -> OffloadWorldView:
        """Realize this seed: the documented stage order, no graph."""
        cfg = self.config
        st = self._static
        giants = self._build_giants(st.tier1s)
        self._tier2_draws = _Tier2Draws.draw(self)
        tier2s = self._materialize_tier2s(st.tier1s, self._tier2_draws)
        self._stub_draws = _StubDraws.draw(self, st.tier1s)
        self._materialize_stubs(st.tier1s, tier2s, self._stub_draws)
        contributing = st.contributing  # validated once per variant
        matrix = self._build_traffic(contributing)
        members = self._build_memberships(
            st.rediris, st.tier1s, giants, tier2s
        )
        address_space = self._scale_address_space()
        collector = FlowCollector(
            table=None,
            matrix=matrix,
            counterparties=contributing,
            days=cfg.days,
        )
        return OffloadWorldView(
            config=cfg,
            rediris=st.rediris,
            transit_providers=(st.tier1s[0], st.tier1s[1]),
            tier1s=tuple(st.tier1s),
            geant=st.geant,
            nrens=st.nrens,
            giants=tuple(giants),
            direct_peer_cdns=st.direct_peer_cdns,
            euroix=st.euroix,
            contributing=contributing,
            matrix=matrix,
            collector=collector,
            _members=MemberArrays.build(
                members, self._member_policies, self._member_cones
            ),
            _contrib_index=st.contrib_index,
            _address_space=address_space,
        )


def build_offload_views(
    configs: Sequence[OffloadWorldConfig],
) -> list[OffloadWorldView]:
    """Realize one world view per config, sharing statics per variant.

    The trial axis: configs differing only in ``seed`` share one
    :class:`_BatchStatics`; each seed then stacks its drawn arrays on the
    shared scaffold.  Each view is bit-identical to
    ``build_offload_world`` on the same config for everything the study
    measures read (the equivalence suite asserts memberships, traffic,
    cones, policies and address space).
    """
    statics: dict[str, _BatchStatics] = {}
    views: list[OffloadWorldView] = []
    resume_gc = gc.isenabled()
    if resume_gc:
        gc.disable()
    try:
        for config in configs:
            key = repr(replace(config, seed=0))
            shared = statics.get(key)
            if shared is None:
                shared = statics[key] = _build_statics(config)
            views.append(_BatchSeedBuilder(config, shared).build_view())
    finally:
        if resume_gc:
            gc.enable()
    return views
