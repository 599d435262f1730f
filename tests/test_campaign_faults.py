"""Fault injection through the probe campaign, on the product's array
engine ("batch") and the per-probe reference engine ("scalar",
``tests/reference/campaign.py``).

Three contracts:

* **off means off** — ``faults=None`` and a zero-intensity config are
  byte-identical to the pre-fault campaign (the fault hooks must not
  consume a single extra draw);
* **per-engine determinism** — a faulted campaign is bit-reproducible
  for each engine on a fixed seed;
* **cross-engine retry identity** — the two engines plan retries on the
  identical query grid from the same backoff stream, so their per-server
  retry and dropped counts agree bit-for-bit (probe draws legitimately
  differ in order, so full measurements are compared per engine only).
"""

from __future__ import annotations

import pytest

from repro.core.detection.campaign import CampaignConfig, ProbeCampaign
from repro.faults import FaultConfig
from repro.ixp.catalog import spec_by_acronym
from repro.sim.detection_world import (
    DetectionWorldConfig,
    build_detection_world,
)
from tests.engine_equivalence import campaign_signature, retry_signature
from tests.reference.campaign import ReferenceCampaign

CHAOS = FaultConfig(intensity=2.0)


@pytest.fixture(scope="module")
def world():
    return build_detection_world(
        DetectionWorldConfig(specs=(spec_by_acronym("TorIX"),), seed=5)
    )


def run(world, engine, faults):
    kind = ProbeCampaign if engine == "batch" else ReferenceCampaign
    campaign = kind(world, CampaignConfig(seed=13, faults=faults))
    result = campaign.run()
    return campaign, result


class TestFaultsOffIsByteIdentical:
    @pytest.mark.parametrize("engine", ("batch", "scalar"))
    def test_none_equals_zero_intensity(self, world, engine):
        _, none_result = run(world, engine, None)
        _, zero_result = run(world, engine, FaultConfig(intensity=0.0))
        assert campaign_signature(none_result) == campaign_signature(
            zero_result
        )

    def test_zero_intensity_builds_no_schedule(self, world):
        campaign = ProbeCampaign(
            world,
            CampaignConfig(seed=13, faults=FaultConfig(intensity=0.0)),
        )
        assert campaign.fault_schedule() is None


class TestFaultedDeterminism:
    @pytest.mark.parametrize("engine", ("batch", "scalar"))
    def test_bit_reproducible(self, world, engine):
        _, a = run(world, engine, CHAOS)
        _, b = run(world, engine, CHAOS)
        assert campaign_signature(a) == campaign_signature(b)

    @pytest.mark.parametrize("engine", ("batch", "scalar"))
    def test_faults_change_the_measurements(self, world, engine):
        _, clean = run(world, engine, None)
        _, chaotic = run(world, engine, CHAOS)
        assert campaign_signature(clean) != campaign_signature(chaotic)


class TestCrossEngineRetryIdentity:
    def test_retry_and_dropped_counts_match(self, world):
        batch_campaign, _ = run(world, "batch", CHAOS)
        scalar_campaign, _ = run(world, "scalar", CHAOS)
        batch_counts = retry_signature(batch_campaign)
        scalar_counts = retry_signature(scalar_campaign)
        assert batch_counts == scalar_counts
        # The chaos config is hot enough that retries actually happened —
        # otherwise this test would pass vacuously.
        assert sum(r for r, _ in batch_counts.values()) > 0

    def test_retry_counts_reproducible_per_engine(self, world):
        a, _ = run(world, "batch", CHAOS)
        b, _ = run(world, "batch", CHAOS)
        assert retry_signature(a) == retry_signature(b)
