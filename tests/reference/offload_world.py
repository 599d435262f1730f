"""The seed implementation's offload-world builder, one network at a time.

:class:`ScalarOffloadBuilder` is the graph builder the product's array
builder replaced, kept whole as an oracle: its own copy of every stage
(draws included), one ``ASGraph.add_as`` / ``add_customer_provider``
call per network and per edge through the fully checked graph APIs, and
a world type, :class:`ReferenceOffloadWorld`, whose member policies are
read off the AS objects, whose member cones are breadth-first customer
cones over its graph and whose inbound paths come from
:class:`~tests.reference.routing.RouteComputation`.  It imports only
constants and :class:`~repro.sim.offload_world.OffloadWorldConfig` from
the product, so the bit-exact suites
(``tests/test_offload_world_engines.py``,
``tests/test_offload_member_arrays.py``) and the pinned digests
(``tests/test_reference_digests.py``) hold the product's arrays, edges
and routes to a builder that shares no stage code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.errors import ConfigurationError
from repro.gcpause import paused_gc
from repro.ixp.euroix import EuroIXSpec, euroix_catalog
from repro.netflow.collector import FlowCollector
from repro.netflow.traffic import (
    TrafficMatrix,
    TrafficMatrixConfig,
    rank_profile_totals,
    split_totals_by_kind,
)
from repro.rand import child_rng, weighted_top_k
from repro.sim.offload_world import (
    _GIANT_RANKS,
    _GIANTS,
    _IXP_POOL_OVERRIDES,
    _REGION_TRAFFIC_MULTIPLIER,
    _REGIONS,
    _STUB_KINDS,
    _STUB_REGION_WEIGHTS,
    _TIER2_POLICY_CODES,
    POLICY_CODES,
    MemberArrays,
    OffloadWorldConfig,
)
from repro.types import ASN, NetworkKind, PeeringPolicy
from tests.reference.cone import customer_cone
from tests.reference.relationships import ASGraph
from tests.reference.routing import ASPath, RouteComputation

_OPEN, _SELECTIVE, _RESTRICTIVE = range(3)


def build_scalar_offload_world(
    config: OffloadWorldConfig | None = None,
) -> "ReferenceOffloadWorld":
    """The offload world for ``config``, inserted network by network."""
    builder = ScalarOffloadBuilder(config or OffloadWorldConfig())
    # ~100k long-lived objects (ASes, adjacency sets, paths).
    with paused_gc():
        return builder.build()


@dataclass(eq=False)
class ReferenceOffloadWorld:
    """The seed implementation's graph world, with oracle member arrays."""

    config: OffloadWorldConfig
    graph: ASGraph
    rediris: ASN
    transit_providers: tuple[ASN, ASN]
    tier1s: tuple[ASN, ...]
    geant: ASN
    nrens: tuple[ASN, ...]
    giants: tuple[ASN, ...]
    direct_peer_cdns: tuple[ASN, ...]
    #: The stubs homed as big eyeballs (ACCESS networks on tier-1s).
    big_eyeballs: frozenset[ASN]
    euroix: tuple[EuroIXSpec, ...]
    memberships: dict[str, frozenset[ASN]]
    contributing: list[ASN]
    matrix: TrafficMatrix
    inbound_paths: dict[ASN, ASPath]
    collector: FlowCollector
    region_of: dict[ASN, str]
    _cones: dict[ASN, frozenset[ASN]] = field(default_factory=dict)
    _members: MemberArrays | None = None

    def contributing_index(self, asn: ASN) -> int | None:
        """Index of ``asn`` in the contributing list, or None."""
        try:
            return self.contributing.index(asn)
        except ValueError:
            return None

    def cone(self, asn: ASN) -> frozenset[ASN]:
        """Breadth-first customer cone of ``asn`` (cached)."""
        cached = self._cones.get(asn)
        if cached is None:
            cached = self._cones[asn] = frozenset(
                customer_cone(self.graph, asn)
            )
        return cached

    def _cone_csr(self, asns: np.ndarray, column_of: dict[ASN, int]):
        """Each member's cone as ascending columns, as a CSR."""
        rows = [
            sorted(column_of[m] for m in self.cone(a) if m in column_of)
            for a in asns.tolist()
        ]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(row) for row in rows])
        indices = np.array(
            [c for row in rows for c in row], dtype=np.int32
        )
        return indptr, indices

    def member_arrays(self) -> MemberArrays:
        """Members, their AS objects' policies and their BFS cones."""
        if self._members is None:
            column_of = {a: i for i, a in enumerate(self.contributing)}
            self._members = MemberArrays.build(
                {
                    acronym: np.array(sorted(members), dtype=np.int64)
                    for acronym, members in self.memberships.items()
                },
                lambda asns: np.array(
                    [POLICY_CODES.index(self.graph.get(a).policy)
                     for a in asns.tolist()],
                    dtype=np.int8,
                ),
                lambda asns: self._cone_csr(asns, column_of),
            )
        return self._members

    def member_all_cones(self) -> tuple[np.ndarray, np.ndarray]:
        """Member cones over the sorted ASN list, from the BFS cones."""
        column_of = {a: i for i, a in enumerate(self.graph.asns())}
        return self._cone_csr(self.member_arrays().asns, column_of)

    @property
    def address_space(self) -> np.ndarray:
        """Each AS's announced space, ascending ASN."""
        return np.array(
            [a.address_space for a in self.graph.ases()], dtype=np.int64
        )

    def total_address_space(self) -> float:
        return float(sum(a.address_space for a in self.graph.ases()))

    def policy_of(self, asn: ASN) -> PeeringPolicy:
        return self.graph.get(asn).policy


class ScalarOffloadBuilder:
    """The seed implementation's stage program, inserting one AS at a time."""

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
        return child_rng(self.config.seed, "offload", stage)

    def build(self) -> ReferenceOffloadWorld:
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

        contributing = [*giants, *tier2s, *stubs]
        if len(contributing) != cfg.contributing_count:
            raise ConfigurationError("contributing count mismatch")
        matrix = self._build_traffic(contributing)
        members = self._build_memberships(rediris, tier1s, giants, tier2s)
        self._scale_address_space()

        inbound_paths = RouteComputation(self.graph).best_paths_to(rediris)
        return ReferenceOffloadWorld(
            config=cfg,
            graph=self.graph,
            rediris=rediris,
            transit_providers=(t1a, t1b),
            tier1s=tuple(tier1s),
            geant=geant,
            nrens=tuple(nrens),
            giants=tuple(giants),
            direct_peer_cdns=tuple(direct_cdns),
            big_eyeballs=frozenset(self.big_eyeballs),
            euroix=euroix_catalog(),
            memberships={
                acronym: frozenset(asns.tolist())
                for acronym, asns in members.items()
            },
            contributing=contributing,
            matrix=matrix,
            inbound_paths=inbound_paths,
            collector=FlowCollector(matrix=matrix, days=cfg.days),
            region_of=self.region_of,
        )

    # -- deterministic scaffold tiers -----------------------------------------

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

    def _build_direct_peer_cdns(
        self, rediris: ASN, tier1s: list[ASN]
    ) -> list[ASN]:
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

    # -- drawn tiers, one network and one edge at a time -----------------------

    def _materialize_tier2s(
        self, tier1s: list[ASN], draws: _Tier2Draws
    ) -> list[ASN]:
        cfg = self.config
        policies = draws.policy_codes(cfg.mega_carrier_count)
        tier2s = []
        for i in range(cfg.tier2_count):
            region = _REGIONS[int(draws.region_idx[i])]
            mega = i < cfg.mega_carrier_count
            tier2 = self._add(
                3001 + i, f"transit-{region}-{i}", NetworkKind.TRANSIT,
                POLICY_CODES[policies[i]], region, 2 ** 16,
            )
            for u in draws.uplink_order[i, : int(draws.uplink_count[i])]:
                self.graph.add_customer_provider(tier2, tier1s[int(u)])
            if mega:
                self.mega_carriers.append(tier2)
            tier2s.append(tier2)
        return tier2s

    def _materialize_stubs(
        self, tier1s: list[ASN], tier2s: list[ASN], draws: _StubDraws
    ) -> list[ASN]:
        n = len(draws.region_idx)
        tier2_by_region: dict[str, list[ASN]] = {r: [] for r in _REGIONS}
        for t in tier2s:
            tier2_by_region[self.region_of[t]].append(t)
        policies = draws.policy_codes()
        stubs = []
        eyeball_row = tier1_only_row = normal_row = 0
        for i in range(n):
            region = _REGIONS[int(draws.region_idx[i])]
            big_eyeball = bool(draws.big_eyeball[i])
            kind = (
                NetworkKind.ACCESS if big_eyeball
                else _STUB_KINDS[int(draws.kind_idx[i])]
            )
            stub = self._add(
                10_001 + i, f"stub-{region}-{i}", kind,
                POLICY_CODES[policies[i]], region,
            )
            self._stub_kinds.append(kind)
            if big_eyeball:
                self._home_big_eyeball(stub, tier1s, draws, eyeball_row)
                eyeball_row += 1
                self.big_eyeballs.append(stub)
            elif draws.tier1_only[i]:
                self._home_tier1_only(stub, tier1s, draws, tier1_only_row, i)
                tier1_only_row += 1
                self.tier1_only_stubs.append(stub)
            else:
                self._home_stub(stub, region, tier2_by_region, tier2s,
                                draws, normal_row, i)
                normal_row += 1
            stubs.append(stub)
        self.tier1_only_stubs_set = set(self.tier1_only_stubs)
        return stubs

    def _home_big_eyeball(self, stub, tier1s, draws, row: int) -> None:
        """Big eyeballs multihome to tier-1s, often plus one mega-carrier."""
        for p in draws.eyeball_order[row, :2]:
            self.graph.add_customer_provider(stub, tier1s[int(p)])
        if self.mega_carriers and draws.eyeball_mega_homed[row]:
            mega = self.mega_carriers[
                int(draws.eyeball_mega_pick_u[row] * len(self.mega_carriers))
            ]
            self.graph.add_customer_provider(stub, mega)

    def _home_tier1_only(self, stub, tier1s, draws, row: int, i: int) -> None:
        count = min(int(draws.provider_count[i]), 3)
        for p in draws.tier1_only_order[row, :count]:
            self.graph.add_customer_provider(stub, tier1s[int(p)])

    def _home_stub(self, stub, region, tier2_by_region, tier2s,
                   draws, row: int, i: int) -> None:
        local = tier2_by_region[region]
        u = draws.pool_u[i]
        if u < 0.15 and self.mega_carriers:
            pool = self.mega_carriers
        elif u < 0.85 and local:
            pool = local
        else:
            pool = tier2s
        for j in range(int(draws.provider_count[i])):
            provider = pool[int(draws.pick_u[row, j] * len(pool))]
            if self.graph.relationship(stub, provider) is None:
                self.graph.add_customer_provider(stub, provider)

    def _tier2_propensities(self) -> np.ndarray:
        cfg = self.config
        member_cut = int(cfg.member_tier2_fraction * cfg.tier2_count)
        propensities: list[float] = []
        for i in range(cfg.tier2_count):
            if i < cfg.mega_carrier_count:
                propensities.append(45.0)
            elif i < member_cut:
                propensities.append(8.0 + float((1 + i) ** -0.7) * 30.0)
            else:
                break
        return np.array(propensities, dtype=float)

    # -- traffic ----------------------------------------------------------------

    def _build_traffic(self, contributing: list[ASN]) -> TrafficMatrix:
        cfg = self.config
        traffic_cfg = cfg.traffic or TrafficMatrixConfig(seed=cfg.seed)
        rng = child_rng(cfg.seed, "traffic")
        count = len(contributing)
        totals = rank_profile_totals(count, traffic_cfg, rng)
        totals = totals[rng.permutation(count)]
        totals = totals * self._region_multipliers()

        self._pin_giants(totals)
        kinds = [
            *self._giant_kinds,
            *[NetworkKind.TRANSIT] * self.config.tier2_count,
            *self._stub_kinds,
        ]
        self._pin_head_to_tier1_only(totals, contributing, rng, kinds)

        return split_totals_by_kind(totals, kinds, traffic_cfg, rng)

    def _region_multipliers(self) -> np.ndarray:
        table = np.array([_REGION_TRAFFIC_MULTIPLIER[r] for r in _REGIONS])
        return np.concatenate([
            np.full(len(_GIANTS), _REGION_TRAFFIC_MULTIPLIER["north_america"]),
            table[self._tier2_draws.region_idx],
            table[self._stub_draws.region_idx],
        ])

    def _pin_giants(self, totals: np.ndarray) -> None:
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
        cfg = self.config
        if not self.tier1_only_stubs:
            return
        index_of = {a: i for i, a in enumerate(contributing)}
        giant_count = len(_GIANTS)
        pool = [index_of[a] for a in self.tier1_only_stubs]
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
                continue
            if contributing[holder] in self.tier1_only_stubs_set:
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

    # -- memberships ------------------------------------------------------------

    def _build_memberships(
        self, rediris: ASN, tier1s: list[ASN], giants: list[ASN],
        tier2s: list[ASN],
    ) -> dict[str, np.ndarray]:
        draws = self._stub_draws
        tier2_weights = self._tier2_propensities()
        member_tier2s = len(tier2_weights)
        mega_count = len(self.mega_carriers)
        goer_stubs = np.flatnonzero(
            ~draws.big_eyeball & ~draws.tier1_only & draws.ixpgoer
        )
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
            np.full(len(giants), 50.0),
            tier2_weights,
            draws.propensity[goer_stubs],
        ])
        goer_global = np.concatenate([
            np.ones(len(giants) + mega_count, dtype=bool),
            global_u < 0.18,
            np.zeros(len(goer_stubs), dtype=bool),
        ])
        members: dict[str, np.ndarray] = {}
        local_only = ("CATNIX", "ESpanix")
        for spec in euroix_catalog():
            rng = child_rng(self.config.seed, "membership", spec.acronym)
            regions = _IXP_POOL_OVERRIDES.get(spec.acronym, (spec.region,))
            pooled_region = np.zeros(len(_REGIONS), dtype=bool)
            pooled_region[[_REGIONS.index(r) for r in regions]] = True
            in_pool = pooled_region[goer_regions]
            if spec.acronym not in local_only:
                in_pool |= goer_global
            pool, weights = goer_asns[in_pool], goer_weights[in_pool]
            size = min(spec.member_count, len(pool))
            picks = weighted_top_k(rng, weights, size)
            members[spec.acronym] = np.sort(pool[picks])
        none = np.empty(0, dtype=np.int64)
        members["ESpanix"] = np.union1d(
            members.get("ESpanix", none), [*tier1s, rediris]
        )
        members["CATNIX"] = np.union1d(members.get("CATNIX", none), [rediris])
        return members

    # -- address space ------------------------------------------------------------

    def _scale_address_space(self) -> None:
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
            big_positions = np.flatnonzero(big_mask)
            space[big_positions] = np.maximum(
                1.0, np.floor(big_total_target * per_eyeball_weight)
            )
        scale = cfg.total_address_space / float(space.sum())
        final = np.maximum(1, np.floor(space * scale).astype(np.int64)).tolist()
        for asys, value in zip(ases, final):
            asys.address_space = value


# ---------------------------------------------------------------------------
# Stage draws.


def _lowest(keys: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` entries of a stable argsort, as a set."""
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    return np.argsort(keys, kind="stable")[:k]


def _region_indices(u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(_STUB_REGION_WEIGHTS)
    return np.minimum(
        np.searchsorted(cum, u, side="right"), len(_REGIONS) - 1
    )


@dataclass(frozen=True, slots=True)
class _Tier2Draws:
    region_idx: np.ndarray
    policy_u: np.ndarray
    uplink_count: np.ndarray
    uplink_order: np.ndarray

    @classmethod
    def draw(cls, builder: ScalarOffloadBuilder) -> "_Tier2Draws":
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
        codes = _TIER2_POLICY_CODES[
            (self.policy_u * len(_TIER2_POLICY_CODES)).astype(np.int64)
        ]
        mega = np.arange(min(mega_carrier_count, codes.size))
        codes[mega] = np.where(mega % 3, _SELECTIVE, _RESTRICTIVE)
        return codes


@dataclass(frozen=True, slots=True)
class _StubDraws:
    region_idx: np.ndarray
    kind_idx: np.ndarray
    tier1_only: np.ndarray
    ixpgoer: np.ndarray
    policy_u: np.ndarray
    big_eyeball: np.ndarray
    provider_count: np.ndarray
    pool_u: np.ndarray
    propensity: np.ndarray
    eyeball_order: np.ndarray
    eyeball_mega_homed: np.ndarray
    eyeball_mega_pick_u: np.ndarray
    tier1_only_order: np.ndarray
    pick_u: np.ndarray

    @classmethod
    def draw(
        cls, builder: ScalarOffloadBuilder, tier1s: list[ASN]
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
            eyeball_mega_homed=eyeball_mega_u < cfg.big_eyeball_mega_homed,
            eyeball_mega_pick_u=eyeball_mega_pick_u,
            tier1_only_order=np.argsort(tier1_only_keys, axis=1),
            pick_u=pick_u,
        )

    def policy_codes(self) -> np.ndarray:
        u = self.policy_u
        return np.where(
            u < 0.62, _OPEN, np.where(u < 0.90, _SELECTIVE, _RESTRICTIVE)
        ).astype(np.int8)
