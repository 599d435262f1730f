"""The seed implementation's per-network pool loop and its object pool.

:func:`generate_scalar_pool` draws the distributions of
:func:`repro.sim.netpool.generate_network_pool` one network at a time,
consuming the seed in a different order, so the two agree in
distribution only (``tests/test_world_builder_engines.py``).
:class:`NetworkPool` is the object pool the scalar detection reference
builds on; :func:`object_pool` wraps a columnar pool's views in it, which
is how the suites compare the object sampler with
:meth:`~repro.sim.netpool.ColumnarNetworkPool.sample_member_indices`.
The object sampler draws with numpy's ``Generator.choice`` and shares no
code with the product's draw loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.cities import CityDB
from repro.rand import make_rng
from repro.sim.netpool import (
    _ADDRESS_SPACE_MEANS,
    _CONTINENT_WEIGHTS,
    _KIND_WEIGHTS,
    _POLICY_WEIGHTS,
    ColumnarNetworkPool,
    NetworkPoolConfig,
    PooledNetwork,
    _make_network,
)
from repro.types import ASN, NetworkKind


@dataclass
class NetworkPool:
    """An object pool, with the sampling helpers the scalar builder uses."""

    networks: list[PooledNetwork]
    _eligible_cache: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.networks)

    def eligible_for(self, continent: str) -> np.ndarray:
        """ASN-sorted indices (into ``networks``) whose scope includes
        ``continent``, cached per continent."""
        cached = self._eligible_cache.get(continent)
        if cached is None:
            found = [
                i for i, n in enumerate(self.networks) if continent in n.scope
            ]
            cached = np.array(found, dtype=np.int64)
            self._eligible_cache[continent] = cached
        return cached

    def sample_members(
        self,
        rng: np.random.Generator,
        continent: str,
        count: int,
        exclude: set[ASN] | None = None,
    ) -> list[PooledNetwork]:
        """Draw ``count`` distinct members for an IXP on ``continent``,
        propensity-weighted without replacement."""
        eligible = self.eligible_for(continent)
        if exclude:
            keep = np.array(
                [self.networks[i].asn not in exclude for i in eligible]
            )
            eligible = eligible[keep]
        if count > len(eligible):
            raise ConfigurationError(
                f"cannot draw {count} members from {len(eligible)} "
                "eligible networks"
            )
        weights = np.array(
            [self.networks[i].propensity for i in eligible], dtype=float
        )
        # numpy's own sampler, not the product's draw loop: propensities
        # are positive, so this is the branch the product takes too.
        idx = rng.choice(
            len(weights), size=count, replace=False, p=weights / weights.sum()
        )
        return [self.networks[i] for i in eligible[idx]]


def object_pool(pool: ColumnarNetworkPool) -> NetworkPool:
    """Every view of a columnar pool, as an object pool."""
    return NetworkPool(networks=[pool.network(i) for i in range(len(pool))])


def _weighted_choice(rng: np.random.Generator, table: dict) -> object:
    keys = list(table.keys())
    weights = np.array([table[k] for k in keys], dtype=float)
    weights /= weights.sum()
    return keys[int(rng.choice(len(keys), p=weights))]


def generate_scalar_pool(
    city_db: CityDB, config: NetworkPoolConfig | None = None
) -> NetworkPool:
    """Per-network loop engine: the seed implementation."""
    config = config or NetworkPoolConfig()
    rng = make_rng(config.seed)
    continents = list(_CONTINENT_WEIGHTS)
    continent_w = np.array([_CONTINENT_WEIGHTS[c] for c in continents])
    continent_w /= continent_w.sum()

    # Propensity is assigned by rank: shuffle ranks so ASN order carries no
    # information, then weight rank r as (r+1)^-exponent.
    ranks = rng.permutation(config.size)
    networks: list[PooledNetwork] = []
    for i in range(config.size):
        continent = str(_weighted_choice(rng, _CONTINENT_WEIGHTS))
        city = city_db.sample(rng, 1, continent=continent)[0]
        kind = _weighted_choice(rng, _KIND_WEIGHTS)
        policy = _weighted_choice(rng, _POLICY_WEIGHTS)
        propensity = float((1 + ranks[i]) ** (-config.propensity_exponent))
        scope = _draw_scope(
            rng, continent, ranks[i], config, continents, continent_w
        )
        networks.append(
            _make_network(
                asn=ASN(config.first_asn + i),
                city=city,
                kind=kind,  # type: ignore[arg-type]
                policy=policy,  # type: ignore[arg-type]
                propensity=propensity,
                scope=scope,
                address_space=_draw_address_space(rng, kind),  # type: ignore[arg-type]
            )
        )
    return NetworkPool(networks=networks)


def _draw_scope(
    rng: np.random.Generator,
    home_continent: str,
    rank: int,
    config: NetworkPoolConfig,
    continents: list[str],
    continent_w: np.ndarray,
) -> frozenset[str]:
    """Continental scope: highest-propensity networks go global."""
    top_global = int(config.global_scope_fraction * config.size)
    if rank < top_global:
        return frozenset(continents)
    if rng.random() < config.bicontinental_fraction:
        other = continents[int(rng.choice(len(continents), p=continent_w))]
        return frozenset({home_continent, other})
    return frozenset({home_continent})


def _draw_address_space(rng: np.random.Generator, kind: NetworkKind) -> int:
    """Announced IPv4 space by business type (log-normal within type)."""
    log2_size = rng.normal(loc=_ADDRESS_SPACE_MEANS[kind], scale=1.5)
    log2_size = float(np.clip(log2_size, 8.0, 22.0))
    return int(2 ** log2_size)
