"""Shared fixtures: small worlds reused across the test session.

World construction and campaigns are deterministic, so session scope is
safe: tests must treat these as read-only.
"""

from __future__ import annotations

import pytest

from repro.core.detection import CampaignConfig, ProbeCampaign
from repro.core.offload import OffloadEstimator, PeerGroups
from repro.ixp.catalog import paper_catalog
from repro.sim import (
    DetectionWorldConfig,
    OffloadWorldConfig,
    build_detection_world,
    build_offload_world,
)
from tests.reference.offload_world import build_scalar_offload_world
from tests.reference.views import ObjectWorld

#: IXPs for the mini detection world: one dual-LG multi-site (Netnod), one
#: with heavy remote peering (TOP-IX), one anchor-bearing (TorIX).
MINI_IXPS = ("Netnod", "TOP-IX", "TorIX")

#: Node-id substrings of suites that build paper-scale worlds: the
#: collection hook below applies the ``slow`` marker automatically, so a
#: forgotten decorator can no longer drag ``make smoke`` (the quick gate
#: deselects with ``-m "not slow"``; tier-1 still runs everything).
PAPER_SCALE_PATTERNS = ("FullScale", "PaperScale", "full_scale", "paper_scale")

#: Known paper-scale tests whose names do not say so: they build the
#: full-size reference network pool (seconds each) and belong behind the
#: ``slow`` gate even though their suites are otherwise fast.
PAPER_SCALE_TESTS = (
    "test_world_builder_engines.py::TestEngineSelection::"
    "test_scalar_engine_uses_scalar_pool",
    "test_world_builder_engines.py::TestZeroBandWeights::"
    "test_direct_only_spec_builds",
    "test_world_builder_engines.py::TestZeroBandWeights::"
    "test_zero_weights_with_remotes_fall_back_to_uniform",
    "test_reference_digests.py::TestReferenceWorldDigests::"
    "test_scalar_mini3_world_digest",
)


def pytest_collection_modifyitems(config, items):
    """Auto-apply ``slow`` to paper-scale suites (see the registries above)."""
    for item in items:
        if item.get_closest_marker("slow"):
            continue
        if any(pattern in item.nodeid for pattern in PAPER_SCALE_PATTERNS) or \
                any(item.nodeid.endswith(test) for test in PAPER_SCALE_TESTS):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def mini_specs():
    return tuple(s for s in paper_catalog() if s.acronym in MINI_IXPS)


@pytest.fixture(scope="session")
def mini_world(mini_specs):
    """A 3-IXP detection world (~350 candidate interfaces)."""
    return build_detection_world(DetectionWorldConfig(seed=11, specs=mini_specs))


@pytest.fixture(scope="session")
def mini_views(mini_world):
    """The mini world read through the reference object model."""
    return ObjectWorld(mini_world)


@pytest.fixture(scope="session")
def mini_result(mini_world):
    """Campaign result over the mini world."""
    return ProbeCampaign(mini_world, CampaignConfig(seed=13)).run()


def small_offload_config(seed: int = 5) -> OffloadWorldConfig:
    """A ~3k-AS offload world that builds in well under a second."""
    from repro.sim.scenarios import rediris_small_config

    return rediris_small_config(seed)


@pytest.fixture(scope="session")
def small_offload_world():
    return build_offload_world(small_offload_config())


@pytest.fixture(scope="session")
def small_reference_world():
    """The small offload world as the reference's object graph."""
    return build_scalar_offload_world(small_offload_config())


@pytest.fixture(scope="session")
def small_groups(small_offload_world):
    return PeerGroups.build(small_offload_world)


@pytest.fixture(scope="session")
def small_estimator(small_offload_world, small_groups):
    return OffloadEstimator(small_offload_world, small_groups)
