"""Shared cross-engine statistical-equivalence machinery.

Every world builder in ``src/`` has one product engine; its scalar
reference — the seed implementation, kept as an oracle in
:mod:`tests.reference` — is held to one of two standards:

* **bit-exact identity** — references that consume identical stage-stream
  draws (the offload world) must agree member-for-member:
  :func:`assert_offload_worlds_identical`;
* **statistical equivalence** — references that consume the same streams
  in different orders (the detection world, the network pool) must agree
  in distribution: the moment/count comparators and the two-sample
  Kolmogorov–Smirnov helpers below.

The probe campaign's per-probe reference (``tests/reference/campaign.py``)
is held to the statistical standard too, through the campaign signatures
below.

Fixed-seed world *pairs* (product, reference) are built through the
``*_pair`` factories so every suite compares the same worlds.  This
module is imported by the engine-equivalence suites
(``tests/test_world_builder_engines.py``,
``tests/test_offload_world_engines.py``) and by anything else that needs
a cheap fixed-seed world (``tiny_offload_config``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.cities import default_city_db
from repro.ixp.catalog import paper_catalog
from repro.sim.detection_world import (
    DetectionWorldConfig,
    build_detection_world,
)
from repro.sim.netpool import NetworkPoolConfig, generate_network_pool
from repro.sim.offload_world import OffloadWorldConfig, build_offload_world
from tests.reference.detection_world import build_scalar_detection_world
from tests.reference.netpool import generate_scalar_pool, object_pool
from tests.reference.offload_world import build_scalar_offload_world


# -- fixed-seed world pairs ----------------------------------------------------


def tiny_offload_config(seed: int = 3, **overrides) -> OffloadWorldConfig:
    """An ~800-network offload world that builds in tens of milliseconds."""
    values = dict(
        seed=seed,
        contributing_count=800,
        tier2_count=60,
        tier1_count=4,
        nren_count=4,
        mega_carrier_count=6,
        big_eyeball_count=12,
        head_pin_count=15,
    )
    values.update(overrides)
    return OffloadWorldConfig(**values)


def network_pool_pair(size: int = 2000, seed: int = 7):
    """(product, reference) network pools from one fixed seed, both as
    object pools: the product's columns are wrapped in their views."""
    db = default_city_db()
    config = NetworkPoolConfig(size=size, seed=seed)
    return (
        object_pool(generate_network_pool(db, config)),
        generate_scalar_pool(db, config),
    )


def detection_world_pair(seed: int = 11, acronyms: tuple[str, ...] | None = None):
    """(product, reference) detection worlds from one fixed seed.

    ``acronyms`` restricts the IXP specs (None = the full 22-IXP world).
    """
    if acronyms is None:
        specs = ()
    else:
        specs = tuple(
            s for s in paper_catalog() if s.acronym in set(acronyms)
        )
    config = DetectionWorldConfig(seed=seed, specs=specs)
    return build_detection_world(config), build_scalar_detection_world(config)


def offload_world_pair(config: OffloadWorldConfig | None = None):
    """(product, reference) offload worlds from one config."""
    config = config or tiny_offload_config()
    return build_offload_world(config), build_scalar_offload_world(config)


# -- campaign signatures -------------------------------------------------------


def campaign_signature(result):
    """Every analyzed interface as a comparable tuple, in result order.

    Two campaign runs are *bit-identical* iff their signatures are equal:
    the signature captures the per-interface minima, the per-operator
    minima and the reply counts — everything the filters and the
    remoteness call consume.
    """
    return [
        (
            a.ixp_acronym,
            a.address.value,
            a.min_rtt_ms,
            tuple(sorted(a.per_operator_min_ms)),
            a.reply_count,
        )
        for a in result.analyzed
    ]


def retry_signature(campaign):
    """Per-server (retries, dropped) counts from a campaign's client ledger.

    The probe engine and its reference plan retries on the identical query
    grid with the same ``(seed, "faults", "backoff", ...)`` stream, so
    these counts — unlike raw probe draws — must agree bit-for-bit
    *across* engines.
    """
    client = campaign.client
    names = sorted(set(client._retry_counts) | set(client._dropped_counts))
    return {
        name: (client.retries(name), client.queries_dropped(name))
        for name in names
    }


# -- moment / count comparators ------------------------------------------------


def assert_counts_close(measured, reference, rel=0.0, abs_=0, label=""):
    """Two scalar counts agree within a relative and/or absolute slack."""
    slack = max(abs_, rel * max(abs(measured), abs(reference)))
    assert abs(measured - reference) <= slack, (
        f"{label or 'count'}: {measured} vs {reference} "
        f"(allowed slack {slack:.3g})"
    )


def assert_category_counts_close(measured, reference, rel=0.0, abs_=0):
    """Two category→count mappings agree key-for-key within slack."""
    assert set(measured) == set(reference), (
        f"category sets differ: {sorted(measured)} vs {sorted(reference)}"
    )
    for key in measured:
        assert_counts_close(
            measured[key], reference[key], rel=rel, abs_=abs_, label=str(key)
        )


def assert_moments_close(measured, reference, rel=0.1, label=""):
    """Two samples agree on mean and standard deviation within ``rel``."""
    measured = np.asarray(measured, dtype=float)
    reference = np.asarray(reference, dtype=float)
    assert measured.size and reference.size, f"{label}: empty sample"
    assert np.mean(measured) == pytest.approx(
        np.mean(reference), rel=rel
    ), f"{label}: means differ"
    assert np.std(measured) == pytest.approx(
        np.std(reference), rel=rel, abs=1e-12
    ), f"{label}: standard deviations differ"


def assert_quantiles_close(
    measured, reference, qs=(10, 50, 90), rel=0.15, abs_=0.1, label=""
):
    """Two samples agree at the given percentiles within slack."""
    measured = np.asarray(measured, dtype=float)
    reference = np.asarray(reference, dtype=float)
    for q in qs:
        assert np.percentile(measured, q) == pytest.approx(
            np.percentile(reference, q), rel=rel, abs=abs_
        ), f"{label}: percentile {q} differs"


# -- Kolmogorov–Smirnov comparator --------------------------------------------


def ks_statistic(sample_a, sample_b) -> float:
    """Two-sample KS statistic: max gap between the empirical CDFs."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n_a: int, n_b: int, alpha_coefficient: float = 1.63) -> float:
    """Large-sample KS rejection threshold ``c(α)·sqrt((n+m)/(n·m))``.

    The default coefficient 1.63 corresponds to α ≈ 0.01 — loose enough
    that same-distribution engine pairs pass reliably, tight enough that
    a drifted draw law fails.
    """
    return alpha_coefficient * np.sqrt((n_a + n_b) / (n_a * n_b))


def assert_ks_close(sample_a, sample_b, alpha_coefficient=1.63, label=""):
    """The two samples pass a two-sample KS test at the given level."""
    stat = ks_statistic(sample_a, sample_b)
    bound = ks_threshold(len(sample_a), len(sample_b), alpha_coefficient)
    assert stat <= bound, (
        f"{label or 'samples'}: KS statistic {stat:.4f} exceeds "
        f"threshold {bound:.4f}"
    )


# -- bit-exact identity (offload world vs its reference) -----------------------


def assert_graphs_identical(vec, sca):
    """Two AS graphs agree node-for-node and edge-for-edge."""
    assert vec.asns() == sca.asns()
    for asn in vec.asns():
        assert vec.providers_of(asn) == sca.providers_of(asn)
        assert vec.customers_of(asn) == sca.customers_of(asn)
        assert vec.peers_of(asn) == sca.peers_of(asn)
        a, b = vec.get(asn), sca.get(asn)
        assert (a.kind, a.policy, a.address_space, a.tags) == (
            b.kind, b.policy, b.address_space, b.tags
        )


def assert_offload_worlds_identical(vec, sca):
    """Two offload worlds are bit-identical (the reference contract)."""
    assert_graphs_identical(vec.graph, sca.graph)
    assert vec.memberships == sca.memberships
    assert vec.contributing == sca.contributing
    assert np.array_equal(vec.matrix.inbound_bps, sca.matrix.inbound_bps)
    assert np.array_equal(vec.matrix.outbound_bps, sca.matrix.outbound_bps)
    assert vec.region_of == sca.region_of
    assert set(vec.inbound_paths) == set(sca.inbound_paths)
    for asn in vec.inbound_paths:
        assert vec.inbound_paths[asn].asns == sca.inbound_paths[asn].asns
