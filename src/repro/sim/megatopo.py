"""Mega-scale tiered worlds: 10⁵–10⁶ networks over the Euro-IX catalog.

The paper-scale worlds (22 IXPs, ~5k candidates) exercise the pipelines;
this module proves they scale.  A mega world is a CAIDA-style tiered AS
topology over a **columnar** network pool:

* a fully-meshed **clique** of the highest-propensity networks (the
  Tier-1 core — no providers, peered with each other);
* a **T1** layer buying transit from the clique;
* a **T2** layer buying transit from T1;
* everyone else a **stub** buying transit from T2.

Tier membership is a pure function of pool propensity (no draws);
provider selection within each layer is propensity-weighted.  IXP
membership draws each Euro-IX exchange's member list from the continent
pool its region maps to, with member counts rescaled so each exchange
keeps its *share* of the population as the world grows
(:func:`repro.ixp.euroix.scaled_member_count`).

Nothing in the build materializes per-network Python objects: the pool
stays struct-of-arrays (:class:`~repro.sim.netpool.ColumnarNetworkPool`),
provider edges live in a CSR table, and memberships are index arrays.
``tests/test_megatopo.py`` pins that with an object-count probe.
:meth:`MegaWorld.to_asgraph` bridges to the object world for small-n
equivalence tests only.

Draw program (statically inventoried by ``repro lint --draw-programs``):

* ``(seed, "megatopo", "pool")`` — the columnar pool's attribute draws
  (realized inside :func:`~repro.sim.netpool._draw_pool_columns`);
* ``(seed, "megatopo", "t1")`` / ``("megatopo", "t2")`` /
  ``("megatopo", "stubs")`` — provider picks per layer;
* ``(seed, "megatopo", "membership", <acronym>)`` — one stream per IXP,
  so adding an exchange never perturbs another's member list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.relationships import ASGraph
from repro.errors import ConfigurationError, TopologyError
from repro.geo.cities import default_city_db
from repro.gcpause import paused_gc
from repro.ixp.euroix import EuroIXSpec, euroix_catalog, scaled_member_count
from repro.rand import child_rng, derive_seed, sorted_probe_search
from repro.sim.netpool import (
    SCOPE_CONTINENTS,
    ColumnarNetworkPool,
    NetworkPoolConfig,
    generate_network_pool,
)

#: Euro-IX region → continent code of the membership pool it draws from.
_REGION_CONTINENT = {
    "europe": "EU",
    "north_america": "NA",
    "latin_america": "SA",
    "asia": "AS",
    "africa": "AF",
}

#: Tier codes stored in :attr:`MegaWorld.tier`.
TIER_CLIQUE, TIER_T1, TIER_T2, TIER_STUB = 0, 1, 2, 3


@dataclass(frozen=True, slots=True)
class MegaWorldConfig:
    """Size, seed and tier-shape knobs of one mega world."""

    size: int = 100_000
    seed: int = 0
    first_asn: int = 10_000
    #: Networks in the fully-meshed Tier-1 core.
    clique_size: int = 12
    #: Fractions of the pool in the transit layers (rest are stubs).
    t1_fraction: float = 0.004
    t2_fraction: float = 0.06
    #: Transit providers bought by each member of a layer.
    providers_per_t1: int = 3
    providers_per_t2: int = 2
    providers_per_stub: int = 2
    #: Smallest scaled IXP membership (see ``scaled_member_count``).
    member_floor: int = 8

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError("world size must be positive")
        if self.clique_size < 2:
            raise ConfigurationError("the clique needs at least 2 networks")
        if not 0 < self.t1_fraction < 1 or not 0 < self.t2_fraction < 1:
            raise ConfigurationError("tier fractions must be in (0, 1)")
        if self.clique_size + self.t1_count + self.t2_count >= self.size:
            raise ConfigurationError(
                "tier sizes leave no stub networks; shrink the fractions"
            )
        if self.providers_per_t1 > self.clique_size:
            raise ConfigurationError("more T1 providers than clique members")
        if self.providers_per_t2 > self.t1_count:
            raise ConfigurationError("more T2 providers than T1 networks")
        if self.providers_per_stub > self.t2_count:
            raise ConfigurationError("more stub providers than T2 networks")
        if min(self.providers_per_t1, self.providers_per_t2,
               self.providers_per_stub) < 1:
            raise ConfigurationError("every non-clique tier buys transit")

    @property
    def t1_count(self) -> int:
        return max(1, int(self.t1_fraction * self.size))

    @property
    def t2_count(self) -> int:
        return max(1, int(self.t2_fraction * self.size))


@dataclass
class MegaWorld:
    """A built mega world: columnar pool + CSR topology + memberships.

    Every field is either the config, the pool, the IXP catalog, or a
    numpy array — which is what makes the world transportable through
    shared memory without pickling (see
    :mod:`repro.experiments.transport`): :meth:`export_columns` hands the
    arrays out, :meth:`from_columns` rebuilds an equivalent world around
    attached views.
    """

    config: MegaWorldConfig
    pool: ColumnarNetworkPool
    #: Tier code per network (TIER_CLIQUE … TIER_STUB).
    tier: np.ndarray
    #: Pool indices by descending propensity (stable), int32: the order
    #: the tiers are assigned in and a trial's traffic ranks follow.
    propensity_order: np.ndarray
    #: CSR provider table: network ``i``'s providers are
    #: ``provider_indices[provider_indptr[i]:provider_indptr[i+1]]``
    #: (pool indices, not ASNs — the object graph never materializes).
    provider_indptr: np.ndarray
    provider_indices: np.ndarray
    #: The Euro-IX catalog the memberships realize, plus scaled counts.
    catalog: tuple[EuroIXSpec, ...]
    member_counts: np.ndarray
    #: CSR membership table: IXP ``j``'s members are
    #: ``member_indices[member_indptr[j]:member_indptr[j+1]]``.
    member_indptr: np.ndarray
    member_indices: np.ndarray
    _coverage: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.pool)

    @property
    def ixp_count(self) -> int:
        return len(self.catalog)

    def providers_of_index(self, i: int) -> np.ndarray:
        """Pool indices of network ``i``'s transit providers."""
        return self.provider_indices[
            self.provider_indptr[i]:self.provider_indptr[i + 1]
        ]

    def members_of(self, ixp: int) -> np.ndarray:
        """Pool indices of IXP ``ixp``'s members (draw order)."""
        return self.member_indices[
            self.member_indptr[ixp]:self.member_indptr[ixp + 1]
        ]

    def membership_masks(self) -> np.ndarray:
        """``(n, ceil(ixps/64))`` uint64: bit ``j`` set when network ``i``
        is itself a member of IXP ``j`` (no cone propagation).

        This is what the offload-style greedy weighs traffic against:
        peering at an IXP reaches the members' own prefixes.  The cone-
        propagated :meth:`coverage_masks` saturates at mega densities
        (every large IXP has a clique member whose cone is the whole
        world), so it serves as a connectivity check, not a metric.
        """
        n = len(self)
        words = (self.ixp_count + 63) // 64
        masks = np.zeros((n, words), dtype=np.uint64)
        for j in range(self.ixp_count):
            bit = np.uint64(1 << (j % 64))
            masks[self.members_of(j), j // 64] |= bit
        return masks

    def coverage_masks(self) -> np.ndarray:
        """``(n, ceil(ixps/64))`` uint64: bit ``j`` of row ``i`` set when
        network ``i`` is reachable through IXP ``j``.

        A member's entire customer cone is served through its IXP port,
        so membership bits propagate *down* the hierarchy: a network
        inherits every IXP bit of its providers.  The tier DAG has depth
        3 (clique → T1 → T2 → stub), so three per-tier sweeps — each one
        gather + bitwise-OR over the fixed provider fan-in — close the
        propagation without any per-node Python loop.
        """
        if self._coverage is not None:
            return self._coverage
        masks = self.membership_masks()
        for level in (TIER_T1, TIER_T2, TIER_STUB):
            rows = np.flatnonzero(self.tier == level)
            if not rows.size:
                continue
            fan_in = int(
                self.provider_indptr[rows[0] + 1]
                - self.provider_indptr[rows[0]]
            )
            slots = (
                self.provider_indptr[rows][:, None]
                + np.arange(fan_in)[None, :]
            )
            providers = self.provider_indices[slots]  # (m, fan_in)
            inherited = np.bitwise_or.reduce(masks[providers], axis=1)
            masks[rows] |= inherited
        self._coverage = masks
        return masks

    def reach_counts(self) -> np.ndarray:
        """Networks reachable through each IXP (members + their cones)."""
        masks = self.coverage_masks()
        counts = np.zeros(self.ixp_count, dtype=np.int64)
        for j in range(self.ixp_count):
            bit = np.uint64(1 << (j % 64))
            counts[j] = int(np.count_nonzero(masks[:, j // 64] & bit))
        return counts

    def assert_hierarchy_sound(self) -> None:
        """Every provider edge must point strictly up the tier order.

        Strictly-decreasing tier numbers along provider edges make the
        customer-provider graph acyclic by construction; this re-checks
        the invariant on the arrays (O(edges), no object graph needed).
        """
        counts = np.diff(self.provider_indptr)
        customers = np.repeat(np.arange(len(self)), counts)
        if np.any(self.tier[self.provider_indices] >= self.tier[customers]):
            raise TopologyError("provider edge does not climb the hierarchy")

    def to_asgraph(self) -> ASGraph:
        """Materialize the object AS graph (small-n equivalence tests only).

        Builds one ``AutonomousSystem`` per network — the exact O(n)
        object path the mega tier exists to avoid; nothing on the study
        path calls this.
        """
        graph = ASGraph()
        graph.add_ases_bulk(
            self.pool.network(i).asys for i in range(len(self))
        )
        counts = np.diff(self.provider_indptr)
        customers = self.pool.asn[np.repeat(np.arange(len(self)), counts)]
        providers = self.pool.asn[self.provider_indices]
        # CSR rows are ascending-customer and contiguous, which is the
        # add_customer_provider_arrays contract.
        graph.add_customer_provider_arrays(customers, providers)
        clique = np.flatnonzero(self.tier == TIER_CLIQUE)
        for a in range(len(clique)):
            for b in range(a + 1, len(clique)):
                graph.add_peering(
                    int(self.pool.asn[clique[a]]),
                    int(self.pool.asn[clique[b]]),
                )
        return graph

    # --- zero-copy transport ------------------------------------------------

    def export_columns(self) -> dict[str, np.ndarray]:
        """Every array of the world, keyed for :meth:`from_columns`.

        The returned dict is exactly what the shared-memory transport
        copies into a segment; everything else about the world (config,
        catalog, city lists) is deterministic from ``config`` and is
        rebuilt on attach rather than shipped.
        """
        return {
            "pool.asn": self.pool.asn,
            "pool.continent_idx": self.pool.continent_idx,
            "pool.city_idx": self.pool.city_idx,
            "pool.kind_idx": self.pool.kind_idx,
            "pool.policy_idx": self.pool.policy_idx,
            "pool.propensity": self.pool.propensity,
            "pool.scope_mask": self.pool.scope_mask,
            "pool.address_space": self.pool.address_space,
            "tier": self.tier,
            "propensity_order": self.propensity_order,
            "provider_indptr": self.provider_indptr,
            "provider_indices": self.provider_indices,
            "member_counts": self.member_counts,
            "member_indptr": self.member_indptr,
            "member_indices": self.member_indices,
        }

    @classmethod
    def from_columns(
        cls, config: MegaWorldConfig, columns: dict[str, np.ndarray]
    ) -> "MegaWorld":
        """Rebuild a world around (possibly shared-memory-backed) arrays.

        The inverse of :meth:`export_columns`: array views are adopted
        as-is (zero-copy), deterministic structure (pool config, city
        lists, IXP catalog) is rebuilt from ``config``.
        """
        city_db = default_city_db()
        pool = ColumnarNetworkPool(
            config=_pool_config(config),
            asn=columns["pool.asn"],
            continent_idx=columns["pool.continent_idx"],
            city_idx=columns["pool.city_idx"],
            kind_idx=columns["pool.kind_idx"],
            policy_idx=columns["pool.policy_idx"],
            propensity=columns["pool.propensity"],
            scope_mask=columns["pool.scope_mask"],
            address_space=columns["pool.address_space"],
            cities_by_continent={
                c: city_db.by_continent(c) for c in SCOPE_CONTINENTS
            },
        )
        return cls(
            config=config,
            pool=pool,
            tier=columns["tier"],
            propensity_order=columns["propensity_order"],
            provider_indptr=columns["provider_indptr"],
            provider_indices=columns["provider_indices"],
            catalog=euroix_catalog(),
            member_counts=columns["member_counts"],
            member_indptr=columns["member_indptr"],
            member_indices=columns["member_indices"],
        )


def _pool_config(config: MegaWorldConfig) -> NetworkPoolConfig:
    """The columnar pool config of a mega world (dedicated child stream)."""
    return NetworkPoolConfig(
        size=config.size,
        seed=derive_seed(config.seed, "megatopo", "pool"),
        first_asn=config.first_asn,
    )


def _weighted_rows(
    rng: np.random.Generator,
    candidates: np.ndarray,
    weights: np.ndarray,
    rows: int,
    k: int,
) -> np.ndarray:
    """``rows × k`` distinct weighted picks from ``candidates``.

    Inverse-CDF sampling on the cumulative weights, so memory stays
    O(rows × k) — a per-row probability matrix would be
    O(rows × len(candidates)), which at 10⁶ stubs × 6k T2s is ruinous.
    Rows containing duplicates are redrawn whole; with k ≤ 3 and dozens
    of candidates the redraw set collapses geometrically.

    Stream contract: the picks are numpy's ``searchsorted(cum,
    uniforms * total, side="right")`` for the same uniforms, looked up
    in sorted order by :func:`repro.rand.sorted_probe_search`
    (``tests/test_weighted_sampling.py`` holds the two equal).
    """
    cum = np.cumsum(weights)
    total = cum[-1]

    def draw(count: int) -> np.ndarray:
        hits, _ = sorted_probe_search(cum, rng.random((count, k)) * total)
        return candidates[hits]

    picks = draw(rows)
    if k == 1:
        return picks
    while True:
        srt = np.sort(picks, axis=1)
        dup_rows = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if not dup_rows.size:
            return picks
        picks[dup_rows] = draw(dup_rows.size)


def build_mega_world(config: MegaWorldConfig | None = None) -> MegaWorld:
    """Generate one mega world deterministically from ``config.seed``.

    Pure array program end to end: pool columns, propensity-ordered tier
    assignment, per-layer weighted provider picks into a CSR table, and
    per-IXP membership draws.  GC is suspended for the allocation burst
    (same rationale as the offload builder: generational collections
    mid-build scan long-lived arrays and reclaim nothing).
    """
    config = config or MegaWorldConfig()
    with paused_gc():
        return _build(config)


def _build(config: MegaWorldConfig) -> MegaWorld:
    pool = generate_network_pool(default_city_db(), _pool_config(config))
    n = config.size

    # Tier assignment is propensity order, no draws: the networks that
    # join the most IXPs are exactly the transit heavyweights.
    order = np.argsort(-pool.propensity, kind="stable")
    tier = np.full(n, TIER_STUB, dtype=np.uint8)
    clique = np.sort(order[: config.clique_size])
    t1 = np.sort(order[config.clique_size:config.clique_size + config.t1_count])
    t2_lo = config.clique_size + config.t1_count
    t2 = np.sort(order[t2_lo:t2_lo + config.t2_count])
    tier[clique] = TIER_CLIQUE
    tier[t1] = TIER_T1
    tier[t2] = TIER_T2
    stubs = np.flatnonzero(tier == TIER_STUB)

    # Provider picks per layer, each from its own child stream.
    t1_picks = _weighted_rows(
        child_rng(config.seed, "megatopo", "t1"),
        clique, pool.propensity[clique], len(t1), config.providers_per_t1,
    )
    t2_picks = _weighted_rows(
        child_rng(config.seed, "megatopo", "t2"),
        t1, pool.propensity[t1], len(t2), config.providers_per_t2,
    )
    stub_picks = _weighted_rows(
        child_rng(config.seed, "megatopo", "stubs"),
        t2, pool.propensity[t2], len(stubs), config.providers_per_stub,
    )

    counts = np.zeros(n, dtype=np.int64)
    counts[t1] = config.providers_per_t1
    counts[t2] = config.providers_per_t2
    counts[stubs] = config.providers_per_stub
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for rows, picks in ((t1, t1_picks), (t2, t2_picks), (stubs, stub_picks)):
        slots = indptr[rows][:, None] + np.arange(picks.shape[1])[None, :]
        indices[slots.ravel()] = picks.ravel()

    # IXP memberships: one stream per exchange, drawn from the continent
    # pool its Euro-IX region maps to, counts rescaled to the world size.
    catalog = euroix_catalog()
    member_counts = np.array(
        [
            scaled_member_count(spec, n, floor=config.member_floor)
            for spec in catalog
        ],
        dtype=np.int64,
    )
    member_lists = []
    for spec, count in zip(catalog, member_counts.tolist()):
        rng = child_rng(config.seed, "megatopo", "membership", spec.acronym)
        continent = _REGION_CONTINENT[spec.region]
        member_lists.append(
            pool.sample_member_indices(rng, continent, count).astype(np.int32)
        )
    member_indptr = np.zeros(len(catalog) + 1, dtype=np.int64)
    np.cumsum(member_counts, out=member_indptr[1:])
    member_indices = (
        np.concatenate(member_lists)
        if member_lists
        else np.zeros(0, dtype=np.int32)
    )

    world = MegaWorld(
        config=config,
        pool=pool,
        tier=tier,
        propensity_order=order.astype(np.int32),
        provider_indptr=indptr,
        provider_indices=indices,
        catalog=catalog,
        member_counts=member_counts,
        member_indptr=member_indptr,
        member_indices=member_indices,
    )
    world.assert_hierarchy_sound()
    return world

