"""The global pool of networks that populate IXP memberships.

Networks differ in how many IXPs they join (Figure 4a shows IXP counts
from 1 to 18 with a heavy skew toward 1), what business they run
(Section 3.2: the remote peers include transit, access and hosting
networks), their advertised peering policy, and where they live.  The pool
generator encodes those distributions once so that the detection and
offload worlds draw from consistent populations.

:func:`generate_network_pool` draws every attribute as one array over the
whole pool — continent, city-within-continent, kind, policy,
bicontinental coin + partner continent, address space, in that fixed
order — and keeps the result as struct-of-arrays columns
(:class:`ColumnarNetworkPool`).  No per-network
:class:`PooledNetwork` / ``AutonomousSystem`` object exists until a
caller asks for one index: the 10⁵–10⁶-network mega worlds never do (a
1M-network pool is eight numpy arrays, not a million Python objects),
and the detection worlds build a view only for the few hundred networks
a world seats.  ``tests/test_detection_world_digests.py`` pins the
columns.

The seed implementation's per-network loop draws the same distributions
in a different order; it lives on as the statistical oracle in
``tests/reference/netpool.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.errors import ConfigurationError
from repro.geo.cities import City, CityDB
from repro.rand import make_rng, weighted_choice
from repro.types import ASN, NetworkKind, PeeringPolicy

#: Continent mix of IXP-going networks: the studied IXPs are mostly
#: European, so the pool leans EU.
_CONTINENT_WEIGHTS = {
    "EU": 0.46,
    "NA": 0.18,
    "SA": 0.12,
    "AS": 0.18,
    "AF": 0.03,
    "OC": 0.03,
}

#: Business mix, loosely following PeeringDB's composition.
_KIND_WEIGHTS = {
    NetworkKind.ACCESS: 0.34,
    NetworkKind.TRANSIT: 0.16,
    NetworkKind.CONTENT: 0.14,
    NetworkKind.HOSTING: 0.16,
    NetworkKind.CDN: 0.05,
    NetworkKind.ENTERPRISE: 0.12,
    NetworkKind.NREN: 0.03,
}

#: Peering-policy mix (Lodhi et al., "Using PeeringDB...", CCR 2014 report
#: open policies dominating).
_POLICY_WEIGHTS = {
    PeeringPolicy.OPEN: 0.62,
    PeeringPolicy.SELECTIVE: 0.28,
    PeeringPolicy.RESTRICTIVE: 0.10,
}

#: Mean announced log2(address space) by business type.
_ADDRESS_SPACE_MEANS = {
    NetworkKind.ACCESS: 15.0,      # ~ a /17
    NetworkKind.TRANSIT: 16.0,
    NetworkKind.CONTENT: 12.0,
    NetworkKind.HOSTING: 13.0,
    NetworkKind.CDN: 14.0,
    NetworkKind.ENTERPRISE: 10.0,
    NetworkKind.NREN: 16.0,
}


@dataclass(frozen=True, slots=True)
class NetworkPoolConfig:
    """Knobs for pool generation."""

    size: int = 5600
    seed: int = 0
    first_asn: int = 10_000
    #: Zipf exponent of the "joins many IXPs" propensity.
    propensity_exponent: float = 0.66
    #: Fraction of networks whose scope spans every continent.
    global_scope_fraction: float = 0.04
    #: Fraction with a two-continent scope.
    bicontinental_fraction: float = 0.18

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError("pool size must be positive")
        if self.first_asn <= 0:
            raise ConfigurationError("first ASN must be positive")
        for name in ("global_scope_fraction", "bicontinental_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigurationError(f"{name} must be in [0, 1]")


@dataclass(slots=True)
class PooledNetwork:
    """One pool entry: the AS plus its IXP-joining characteristics."""

    asys: AutonomousSystem
    propensity: float
    scope: frozenset[str]  # continent codes the network will peer in

    @property
    def asn(self) -> ASN:
        """ASN shortcut."""
        return self.asys.asn

    @property
    def home_city(self) -> City:
        """Home city shortcut (pool networks always have one)."""
        assert self.asys.home_city is not None
        return self.asys.home_city


#: Continent order defining the scope bitmask bits of the columnar pool.
SCOPE_CONTINENTS: tuple[str, ...] = tuple(_CONTINENT_WEIGHTS)


@dataclass
class ColumnarNetworkPool:
    """Struct-of-arrays pool behind the mega and detection worlds.

    The population :func:`generate_network_pool` draws, as columns:

    * ``asn``            int64, ascending (``first_asn + arange``)
    * ``continent_idx``  index into :data:`SCOPE_CONTINENTS`
    * ``city_idx``       index into the continent's name-sorted city list
    * ``kind_idx`` / ``policy_idx``  indices into the weight-table orders
    * ``propensity``     float64 Zipf-by-rank weights
    * ``scope_mask``     uint8 bitmask over :data:`SCOPE_CONTINENTS`
    * ``address_space``  int64 announced IPv4 space

    No per-network Python object exists until :meth:`network` is called
    for an explicit index; mega world builders never call it, and the
    detection builder calls it once per network it seats.  Sampling
    returns index arrays.
    """

    config: NetworkPoolConfig
    asn: np.ndarray
    continent_idx: np.ndarray
    city_idx: np.ndarray
    kind_idx: np.ndarray
    policy_idx: np.ndarray
    propensity: np.ndarray
    scope_mask: np.ndarray
    address_space: np.ndarray
    cities_by_continent: dict[str, list[City]]
    _eligible_cache: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.asn)

    def eligible_for(self, continent: str) -> np.ndarray:
        """ASN-sorted indices whose scope covers ``continent`` (cached)."""
        cached = self._eligible_cache.get(continent)
        if cached is None:
            try:
                bit = 1 << SCOPE_CONTINENTS.index(continent)
            except ValueError:
                raise ConfigurationError(
                    f"unknown continent {continent!r}"
                ) from None
            cached = np.flatnonzero(self.scope_mask & bit).astype(np.int64)
            self._eligible_cache[continent] = cached
        return cached

    def sample_member_indices(
        self,
        rng: np.random.Generator,
        continent: str,
        count: int,
        exclude_asns: "set[ASN] | np.ndarray | None" = None,
    ) -> np.ndarray:
        """Draw ``count`` distinct members for an IXP on ``continent``.

        Draws are propensity-weighted without replacement over the
        ASN-sorted eligible set (:func:`weighted_index_sample`), so
        high-propensity networks recur across IXPs — that recurrence *is*
        the IXP-count distribution of Figure 4a.  ``exclude_asns`` may be
        a set or an ASN array.
        """
        eligible = self.eligible_for(continent)
        if exclude_asns is not None and len(exclude_asns):
            banned = np.array(sorted(exclude_asns), dtype=np.int64)
            eligible = eligible[~np.isin(self.asn[eligible], banned)]
        if count > len(eligible):
            raise ConfigurationError(
                f"cannot draw {count} members from {len(eligible)} "
                "eligible networks"
            )
        weights = self.propensity[eligible]
        idx = weighted_index_sample(rng, weights, count)
        return eligible[idx]

    def scope_of(self, i: int) -> frozenset[str]:
        """The continent-code scope of entry ``i`` (decoded from the mask)."""
        mask = int(self.scope_mask[i])
        return frozenset(
            code for bit, code in enumerate(SCOPE_CONTINENTS)
            if mask & (1 << bit)
        )

    def network(self, i: int) -> PooledNetwork:
        """Materialize entry ``i`` as a :class:`PooledNetwork` on demand."""
        continent = SCOPE_CONTINENTS[int(self.continent_idx[i])]
        city = self.cities_by_continent[continent][int(self.city_idx[i])]
        kinds = list(_KIND_WEIGHTS)
        policies = list(_POLICY_WEIGHTS)
        return _make_network(
            asn=ASN(int(self.asn[i])),
            city=city,
            kind=kinds[int(self.kind_idx[i])],
            policy=policies[int(self.policy_idx[i])],
            propensity=float(self.propensity[i]),
            scope=self.scope_of(i),
            address_space=int(self.address_space[i]),
        )


def weighted_index_sample(
    rng: np.random.Generator,
    weights: np.ndarray,
    count: int,
    indices: np.ndarray | None = None,
) -> np.ndarray:
    """``count`` distinct draws from ``indices``, weighted by ``weights``.

    ``indices`` defaults to ``arange(len(weights))``; ``weights`` is
    aligned with it.  The draw law matches the reference builders' one-at-
    a-time loop: positive-weight entries are drawn (weighted) before any
    zero-weight entry, zero-weight entries are drawn uniformly once the
    positives are exhausted, and an all-zero vector falls back to a fully
    uniform draw — a bare ``rng.choice(p=...)`` would produce NaN weights
    or raise when the positives are fewer than ``count``.

    Stream contract: the positive-weight path consumes the same uniforms
    and returns the same indices as numpy's ``Generator.choice(indices,
    size=count, replace=False, p=weights / weights.sum())`` — it runs
    that loop itself (:func:`repro.rand.weighted_choice`), and
    ``tests/test_weighted_sampling.py`` holds it to ``choice`` as an
    oracle, so world digests do not depend on ``choice``'s internals.  A
    NaN or negative weight raises ``ValueError``, as ``choice`` does, on
    every path and before any draw.
    """
    if not (weights >= 0).all():  # NaN compares False too
        raise ValueError("weights must be non-negative and not NaN")
    if indices is None:
        indices = np.arange(len(weights))
    total = weights.sum()
    if total <= 0:  # all zero: uniform
        return rng.choice(indices, size=count, replace=False)
    nonzero = indices[weights > 0]
    if count > len(nonzero):
        zeros = indices[weights <= 0]
        extra = rng.choice(zeros, size=count - len(nonzero), replace=False)
        return np.concatenate([nonzero, extra])
    return indices[weighted_choice(rng, weights / total, count)]


def generate_network_pool(
    city_db: CityDB, config: NetworkPoolConfig | None = None
) -> ColumnarNetworkPool:
    """Generate the network pool deterministically from ``config.seed``."""
    return _draw_pool_columns(city_db, config or NetworkPoolConfig())


def _make_network(
    asn: ASN,
    city: City,
    kind: NetworkKind,
    policy: PeeringPolicy,
    propensity: float,
    scope: frozenset[str],
    address_space: int,
) -> PooledNetwork:
    asys = AutonomousSystem(
        asn=asn,
        name=f"{kind}-{city.name.lower().replace(' ', '')}-{asn}",
        kind=kind,
        home_city=city,
        policy=policy,
        address_space=address_space,
    )
    return PooledNetwork(asys=asys, propensity=propensity, scope=scope)


def _draw_pool_columns(
    city_db: CityDB, config: NetworkPoolConfig
) -> ColumnarNetworkPool:
    """The pool's array draw program: one draw per attribute over the pool.

    Draw order (fixed; see the module docstring): rank permutation,
    continent, city-within-continent, kind, policy, bicontinental coin,
    partner continent, address-space normal deviates.
    """
    rng = make_rng(config.seed)
    size = config.size
    continents = list(_CONTINENT_WEIGHTS)
    continent_w = np.array([_CONTINENT_WEIGHTS[c] for c in continents])
    continent_w /= continent_w.sum()
    kinds = list(_KIND_WEIGHTS)
    kind_w = np.array([_KIND_WEIGHTS[k] for k in kinds], dtype=float)
    kind_w /= kind_w.sum()
    policies = list(_POLICY_WEIGHTS)
    policy_w = np.array([_POLICY_WEIGHTS[p] for p in policies], dtype=float)
    policy_w /= policy_w.sum()
    #: Name-sorted per-continent city lists, drawn from uniformly.
    cities_by_continent = {c: city_db.by_continent(c) for c in continents}
    for continent, cities in cities_by_continent.items():
        if not cities:
            raise ConfigurationError(f"no cities on continent {continent!r}")

    ranks = rng.permutation(size)
    continent_idx = rng.choice(len(continents), size=size, p=continent_w)
    city_counts = np.array([len(cities_by_continent[c]) for c in continents])
    city_idx = rng.integers(0, city_counts[continent_idx])
    kind_idx = rng.choice(len(kinds), size=size, p=kind_w)
    policy_idx = rng.choice(len(policies), size=size, p=policy_w)
    bicontinental = rng.random(size) < config.bicontinental_fraction
    other_idx = rng.choice(len(continents), size=size, p=continent_w)
    space_z = rng.normal(loc=0.0, scale=1.0, size=size)

    propensity = (1.0 + ranks) ** (-config.propensity_exponent)
    means = np.array([_ADDRESS_SPACE_MEANS[k] for k in kinds])
    log2_size = np.clip(means[kind_idx] + 1.5 * space_z, 8.0, 22.0)
    address_space = (2.0**log2_size).astype(np.int64)

    # Scope as a bitmask over SCOPE_CONTINENTS: all bits for the global
    # top ranks, home|partner for bicontinentals, home otherwise.
    top_global = int(config.global_scope_fraction * size)
    home_bit = np.left_shift(1, continent_idx).astype(np.uint8)
    other_bit = np.left_shift(1, other_idx).astype(np.uint8)
    scope_mask = np.where(bicontinental, home_bit | other_bit, home_bit)
    scope_mask = np.where(
        ranks < top_global,
        np.uint8((1 << len(continents)) - 1),
        scope_mask,
    ).astype(np.uint8)

    return ColumnarNetworkPool(
        config=config,
        asn=config.first_asn + np.arange(size, dtype=np.int64),
        continent_idx=continent_idx.astype(np.int16),
        city_idx=city_idx.astype(np.int32),
        kind_idx=kind_idx.astype(np.int16),
        policy_idx=policy_idx.astype(np.int16),
        propensity=propensity,
        scope_mask=scope_mask,
        address_space=address_space,
        cities_by_continent=cities_by_continent,
    )
