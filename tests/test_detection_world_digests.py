"""Golden digests of the pool draw program and of vectorized detection worlds.

The bit-exact suites elsewhere compare two paths of the *same* tree (a
batched study against its per-trial reference, shm against pickle), so
they cannot see a change that moves both paths at once.  These digests
were taken from the pool columns and the exported worlds before the
detection builder moved onto the columnar pool; any drift in a pool
column, a seated member, a truth row or a registry record changes them.

``_reference_draw_pool_columns`` keeps the per-network list
comprehensions the draw program used for its per-continent city counts
and per-kind address-space means; the table lookups that replaced them
must give identical arrays.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.geo.cities import default_city_db
from repro.rand import make_rng
from repro.sim.detection_world import DetectionWorldConfig, build_detection_world
from repro.sim.megatopo import _pool_config
from repro.sim.netpool import (
    _ADDRESS_SPACE_MEANS,
    _CONTINENT_WEIGHTS,
    _KIND_WEIGHTS,
    _POLICY_WEIGHTS,
    NetworkPoolConfig,
    _draw_pool_columns,
)
from repro.sim.scenarios import mega_config, mini_specs
from tests.reference.views import ObjectWorld

#: Every column of :class:`~repro.sim.netpool.ColumnarNetworkPool`.
POOL_COLUMNS = (
    "asn", "continent_idx", "city_idx", "kind_idx", "policy_idx",
    "propensity", "scope_mask", "address_space",
)

POOL_DIGESTS = {
    "detection-5600-seed42": (
        "63ec9272bcdc04bdab6d3972167f139f"
        "8e0e2644b91312a7c4d47b065b109841"
    ),
    "mega-100k-seed0": (
        "8237dbea9da804cbf47277a9d515ac2f"
        "c5dbb3bd2132594269318cd7f86739ef"
    ),
}

WORLD_DIGESTS = {
    "mini3-seed11": (
        "ff9bcf98ea6f7661b0516589c2dddc99"
        "c76f39e961362ab9b23cc0cc72833258"
    ),
    "paper22-seed42": (
        "9fa62a6fa9a66bae519a04aa665ace2d"
        "4bf18c3104d341f3902137af49dd3488"
    ),
}


def pool_digest(pool) -> str:
    """sha256 over every column's name, dtype and raw bytes."""
    digest = hashlib.sha256()
    for name in POOL_COLUMNS:
        column = np.ascontiguousarray(getattr(pool, name))
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def export_world(world) -> dict:
    """The seated content of a detection world's object views as plain
    JSON values (a product world reads them through
    :class:`~tests.reference.views.ObjectWorld`).

    Truth rows sorted by (IXP, address); directory records in each IXP's
    address order, asn-change fields included; each IXP's members in
    registration order; the shortfall.  Floats go through ``repr`` (via
    ``json``), so the export is exact.
    """
    truth = [
        [
            t.ixp_acronym, t.address.value, int(t.asn), t.is_remote,
            t.behavior, t.base_rtt_ms, t.circuit_km, t.on_lan,
        ]
        for _, t in sorted(world.truth.items())
    ]
    records = [
        [
            r.ixp_acronym, r.address.value,
            None if r.asn is None else int(r.asn),
            None if r.policy is None else r.policy.value,
            r.stale, r.well_known,
            None if r.asn_after_change is None else int(r.asn_after_change),
            r.asn_change_time,
        ]
        for acronym in world.directory.ixps()
        for r in world.directory.targets_for(acronym)
    ]
    members = {
        acronym: [
            [
                int(m.network.asn), m.network.name, m.network.kind.value,
                m.network.policy.value, m.network.address_space,
            ]
            for m in ixp.members
        ]
        for acronym, ixp in sorted(world.ixps.items())
    }
    return {
        "truth": truth,
        "records": records,
        "members": members,
        "shortfall": dict(sorted(world.shortfall.items())),
    }


def world_digest(world) -> str:
    payload = json.dumps(export_world(world), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _reference_draw_pool_columns(city_db, config: NetworkPoolConfig) -> dict:
    """The draw program with its original per-network list comprehensions.

    Same draws in the same order as ``_draw_pool_columns``; only the
    per-network ``city_counts`` and address-space ``means`` are built one
    Python element at a time, as they were before the table lookups.
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
    cities_by_continent = {c: city_db.by_continent(c) for c in continents}

    rng.permutation(size)
    continent_idx = rng.choice(len(continents), size=size, p=continent_w)
    city_counts = np.array(
        [len(cities_by_continent[continents[i]]) for i in continent_idx]
    )
    city_idx = rng.integers(0, city_counts)
    kind_idx = rng.choice(len(kinds), size=size, p=kind_w)
    rng.choice(len(policies), size=size, p=policy_w)
    rng.random(size)
    rng.choice(len(continents), size=size, p=continent_w)
    space_z = rng.normal(loc=0.0, scale=1.0, size=size)
    means = np.array([_ADDRESS_SPACE_MEANS[kinds[i]] for i in kind_idx])
    log2_size = np.clip(means + 1.5 * space_z, 8.0, 22.0)
    return {
        "city_idx": city_idx,
        "address_space": (2.0**log2_size).astype(np.int64),
    }


class TestPoolDrawDigests:
    @pytest.mark.parametrize("size,seed", [(1, 0), (37, 5), (5600, 42)])
    def test_table_lookups_match_list_comprehensions(self, size, seed):
        db = default_city_db()
        config = NetworkPoolConfig(size=size, seed=seed)
        pool = _draw_pool_columns(db, config)
        reference = _reference_draw_pool_columns(db, config)
        for name, column in reference.items():
            assert np.array_equal(getattr(pool, name), column), name

    def test_detection_pool_digest(self):
        pool = _draw_pool_columns(
            default_city_db(), NetworkPoolConfig(size=5600, seed=42)
        )
        assert pool_digest(pool) == POOL_DIGESTS["detection-5600-seed42"]

    def test_mega_pool_digest(self):
        pool = _draw_pool_columns(
            default_city_db(), _pool_config(mega_config())
        )
        assert len(pool) == 100_000
        assert pool_digest(pool) == POOL_DIGESTS["mega-100k-seed0"]


class TestDetectionWorldDigests:
    def test_mini3_world_digest(self):
        world = build_detection_world(
            DetectionWorldConfig(seed=11, specs=mini_specs())
        )
        assert world_digest(ObjectWorld(world)) == WORLD_DIGESTS["mini3-seed11"]

    def test_paper_scale_world_digest(self):
        world = build_detection_world(DetectionWorldConfig(seed=42))
        assert world_digest(ObjectWorld(world)) == WORLD_DIGESTS["paper22-seed42"]
