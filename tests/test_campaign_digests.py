"""Golden digests of the probe campaign's raw output and filter reports.

The world digests (``test_detection_world_digests.py``) pin what a world
is; these pin what a campaign measures on it — every measurement's IXP,
address and identification, and every operator's reply RTT, TTL and
send-time bytes, in ``collect()`` order — and what the filters keep.
They were taken before the campaign moved onto the interface table, on
the mini3 world at seed 11 with ``CampaignConfig(seed=7)``, once clean
and once under an active fault schedule.  A change that moves any reply
by one ulp (a different addition order in a base RTT, say) changes
them.

The per-probe campaign and the per-stage filter loop of the seed
implementation, kept as oracles in ``tests/reference/``, are pinned the
same way (``TestReferenceCampaignDigests``).  Their campaign digests run
over the product world's object view, so they also pin that view to the
objects the seed implementation built.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.detection import (
    FILTER_ORDER,
    CampaignConfig,
    FilterPipeline,
    ProbeCampaign,
)
from repro.faults import FaultConfig
from repro.registry.identify import identify_rows
from repro.sim.detection_world import (
    IDENTIFICATION_COVERAGE,
    DetectionWorldConfig,
    build_detection_world,
)
from repro.sim.scenarios import mini_specs
from tests.reference.campaign import ReferenceCampaign
from tests.reference.filters import (
    ReferenceFilterPipeline,
    reference_measurement,
)

CAMPAIGN_DIGESTS = {
    "clean": (
        "762015da506cfc2f4eb0e57312efab85"
        "6cc3f79f3bf272d30d0eab1066649ca8"
    ),
    "faulted": (
        "bd4e835bb9f3c2f059074bd520034116"
        "7cfe2395da9ad2db79f5f4b9c29b99ab"
    ),
}

#: Filter reports over the clean campaign, per drop-one ablation.
REPORT_DIGESTS = {
    None: (
        "3d091be736e77af743e0f68f0652850b"
        "873f11df5a8225049d8199c3af3b3ae2"
    ),
    'sample-size': (
        "0b5efc5dd0df2393a5559d03a4f71203"
        "0c337b02f828e5ceeac76466e3bdc950"
    ),
    'ttl-switch': (
        "047f2e9b1f14f77c66df5c006325671a"
        "15e139c3b368b51e28848d223dd89e6f"
    ),
    'ttl-match': (
        "ca9eb37ad074993af027085e95e75938"
        "5317fe53656a4c6723ce292885cbe83a"
    ),
    'rtt-consistent': (
        "465409149d2a4078c4f60a85a6bc6a0e"
        "616d261ae3b706e28b26b0f5bf2e8725"
    ),
    'lg-consistent': (
        "08b8eef0eadc936a7cf2a182e82cec22"
        "fcddb94c8a543bb8d5706e724e56196e"
    ),
    'asn-change': (
        "3d091be736e77af743e0f68f0652850b"
        "873f11df5a8225049d8199c3af3b3ae2"
    ),
}

#: The per-probe campaign on the mini3 world (seed 11), and the stage
#: loop's report over its clean measurements.
REFERENCE_CAMPAIGN_DIGESTS = {
    "clean": (
        "75ef37b515c126c7b6450cc9a13123d9"
        "eb90fa97d4efc430d2433fd1f2ba182b"
    ),
    "faulted": (
        "17e26d5871226c1652a6b6f05cccd7c9"
        "141cb765b6f5691b936faa12d650bb12"
    ),
    "report": (
        "bad63e6bee21b683ee1bd785faa3f5f9"
        "6a4ab839b82842e3701d9b4d55ad4cc1"
    ),
}

CHAOS = FaultConfig(intensity=2.0)


def _reply_columns(replies):
    """RTT, TTL and send-time arrays of a batch or of a list of replies."""
    if isinstance(replies, list):
        return (
            np.array([r.rtt_ms for r in replies], dtype=np.float64),
            np.array([r.ttl for r in replies], dtype=np.int64),
            np.array([r.sent_at_s for r in replies], dtype=np.float64),
        )
    return replies.rtt_ms, replies.ttl, replies.sent_at_s


def measurements_digest(measurements) -> str:
    """sha256 over each measurement's identity, identification and
    per-operator reply bytes, in order."""
    digest = hashlib.sha256()
    for m in measurements:
        digest.update(json.dumps([
            m.ixp_acronym, m.address.value,
            None if m.asn_at_start is None else int(m.asn_at_start),
            None if m.asn_at_end is None else int(m.asn_at_end),
            m.identification_source,
        ]).encode())
        for operator in sorted(m.replies_by_operator):
            rtt, ttl, sent = _reply_columns(m.replies_by_operator[operator])
            digest.update(operator.encode())
            digest.update(np.ascontiguousarray(rtt, dtype=np.float64).tobytes())
            digest.update(np.ascontiguousarray(ttl, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(sent, dtype=np.float64).tobytes())
    return digest.hexdigest()


def report_digest(report) -> str:
    """sha256 over a report's discard counts and reasons and its
    survivors' measurements."""
    digest = hashlib.sha256()
    digest.update(json.dumps(list(report.discard_counts.items())).encode())
    digest.update(json.dumps(sorted(
        [*key, reason] for key, reason in report.discard_reason.items()
    )).encode())
    digest.update(measurements_digest(report.passed).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def world():
    return build_detection_world(
        DetectionWorldConfig(seed=11, specs=mini_specs())
    )


@pytest.fixture(scope="module")
def clean(world):
    return ProbeCampaign(world, CampaignConfig(seed=7)).collect()


class TestCampaignDigests:
    def test_clean_campaign_digest(self, clean):
        assert len(clean) == 335
        assert measurements_digest(clean) == CAMPAIGN_DIGESTS["clean"]

    def test_faulted_campaign_digest(self, world):
        measured = ProbeCampaign(
            world, CampaignConfig(seed=7, faults=CHAOS)
        ).collect()
        assert measurements_digest(measured) == CAMPAIGN_DIGESTS["faulted"]

    @pytest.mark.parametrize("skip", (None, *FILTER_ORDER))
    def test_filter_report_digest(self, clean, skip):
        report = FilterPipeline().run(clean, skip=skip)
        assert report_digest(report) == REPORT_DIGESTS[skip]


class TestTableIdentification:
    """The campaign identifies each IXP's rows in one pass; the answers are
    the object pipeline's, row for row."""

    @pytest.mark.parametrize("seed", (11, 29))
    def test_matches_identify_span_on_every_row(self, seed):
        world = build_detection_world(
            DetectionWorldConfig(seed=seed, specs=mini_specs())
        )
        names = [label for label, _ in IDENTIFICATION_COVERAGE]
        times = (0.0, world.window.duration_s)
        table = world.table
        checked = 0
        for entry in world.exchanges:
            rows = slice(entry.start, entry.stop)
            asns, picks = identify_rows(
                world.config.seed, IDENTIFICATION_COVERAGE,
                table.address[rows], table.asn[rows],
                table.well_known[rows], table.asn_after[rows],
                table.asn_change_s[rows], times,
            )
            records = world.directory.targets_for(entry.acronym)
            assert [r.address.value for r in records] == (
                table.address[rows].tolist()
            )
            for j, record in enumerate(records):
                span = world.identification.identify_span(
                    entry.acronym, record.address, *times
                )
                for k, result in enumerate(span):
                    expected_asn = -1 if result.asn is None else int(result.asn)
                    assert int(asns[k, j]) == expected_asn
                    pick = int(picks[k, j])
                    assert (names[pick] if pick >= 0 else None) == result.source
                checked += 1
        assert checked == len(table)


class TestReferenceCampaignDigests:
    def test_scalar_campaign_digest(self, world):
        measured = ReferenceCampaign(
            world, CampaignConfig(seed=7)
        ).collect()
        assert measurements_digest(measured) == (
            REFERENCE_CAMPAIGN_DIGESTS["clean"]
        )
        report = ReferenceFilterPipeline().run(measured)
        assert report_digest(report) == REFERENCE_CAMPAIGN_DIGESTS["report"]

    def test_scalar_faulted_campaign_digest(self, world):
        measured = ReferenceCampaign(
            world, CampaignConfig(seed=7, faults=CHAOS)
        ).collect()
        assert measurements_digest(measured) == (
            REFERENCE_CAMPAIGN_DIGESTS["faulted"]
        )

    @pytest.mark.parametrize("skip", (None, *FILTER_ORDER))
    def test_stage_loop_report_digest(self, clean, skip):
        """The reference stage loop over the product campaign's
        measurements (materialized as reply lists)."""
        report = ReferenceFilterPipeline().run(
            [reference_measurement(m) for m in clean], skip=skip
        )
        assert report_digest(report) == REPORT_DIGESTS[skip]
