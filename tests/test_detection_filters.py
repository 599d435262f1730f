"""The six conservative filters, each exercised with crafted measurements.

Each filter's cases run one hand-built measurement through the whole
pipeline and read its discard reason (``None``: it survived), so a case
also checks that no earlier filter claims it.
"""

import pytest

from repro.core.detection.filters import FILTER_ORDER, FilterConfig, FilterPipeline
from repro.core.detection.measurements import InterfaceMeasurement
from repro.errors import ConfigurationError
from repro.net.addr import IPv4Address
from repro.net.icmp import EchoReply, ReplyBatch
from repro.types import ASN


def replies(rtts, ttl=255, operator_offset=0.0):
    """One operator's replies; ``ttl`` is one value or one per reply."""
    ttls = ttl if isinstance(ttl, list) else [ttl] * len(rtts)
    return ReplyBatch.from_replies([
        EchoReply(rtt_ms=r + operator_offset, ttl=t,
                  target_address="10.0.0.1", sent_at_s=float(i))
        for i, (r, t) in enumerate(zip(rtts, ttls))
    ])


def measurement(pch_rtts=None, ripe_rtts=None, pch_ttl=255, ripe_ttl=255,
                asn_start=None, asn_end=None):
    m = InterfaceMeasurement(
        ixp_acronym="X-IX", address=IPv4Address.parse("10.0.0.1")
    )
    if pch_rtts is not None:
        m.replies_by_operator["PCH"] = replies(pch_rtts, ttl=pch_ttl)
    if ripe_rtts is not None:
        m.replies_by_operator["RIPE"] = replies(ripe_rtts, ttl=ripe_ttl)
    m.asn_at_start = ASN(asn_start) if asn_start else None
    m.asn_at_end = ASN(asn_end) if asn_end else None
    return m


@pytest.fixture
def pipeline():
    return FilterPipeline()


def reason(pipeline, m):
    """The filter that discards ``m``, or None when it survives."""
    report = pipeline.run([m])
    return report.discard_reason.get((m.ixp_acronym, m.address.value))


GOOD = [1.0, 1.1, 1.05, 1.2, 1.0, 1.15, 1.08, 1.12, 1.03, 1.2]


class TestSampleSize:
    def test_enough_replies_pass(self, pipeline):
        assert reason(pipeline, measurement(pch_rtts=GOOD)) is None

    def test_too_few_from_one_lg_discards(self, pipeline):
        m = measurement(pch_rtts=GOOD, ripe_rtts=GOOD[:5])
        assert reason(pipeline, m) == "sample-size"

    def test_no_replies_discards(self, pipeline):
        assert reason(pipeline, measurement()) == "sample-size"


class TestTTLSwitch:
    def test_stable_ttl_passes(self, pipeline):
        assert reason(pipeline, measurement(pch_rtts=GOOD)) is None

    def test_changed_ttl_discards(self, pipeline):
        m = measurement(pch_rtts=GOOD)
        ttls = [255] * len(GOOD)
        ttls[4] = 64
        m.replies_by_operator["PCH"] = replies(GOOD, ttl=ttls)
        assert reason(pipeline, m) == "ttl-switch"

    def test_cross_lg_ttl_difference_discards(self, pipeline):
        m = measurement(pch_rtts=GOOD, ripe_rtts=GOOD, pch_ttl=255,
                        ripe_ttl=64)
        assert reason(pipeline, m) == "ttl-switch"


class TestTTLMatch:
    def test_expected_ttls_pass(self, pipeline):
        assert reason(pipeline, measurement(pch_rtts=GOOD, pch_ttl=64)) is None
        assert reason(pipeline, measurement(pch_rtts=GOOD, pch_ttl=255)) is None

    def test_rare_ttl_discards(self, pipeline):
        assert reason(pipeline, measurement(pch_rtts=GOOD, pch_ttl=128)) == "ttl-match"

    def test_decremented_ttl_discards(self, pipeline):
        """Stale off-LAN targets reply with TTL 254: one extra hop."""
        assert reason(pipeline, measurement(pch_rtts=GOOD, pch_ttl=254)) == "ttl-match"


class TestRTTConsistent:
    def test_clustered_minimum_passes(self, pipeline):
        assert reason(pipeline, measurement(pch_rtts=GOOD)) is None

    def test_scattered_samples_discard(self, pipeline):
        scattered = [5.0, 80.0, 140.0, 60.0, 200.0, 170.0, 90.0, 120.0,
                     220.0, 45.0]
        assert reason(pipeline, measurement(pch_rtts=scattered)) == "rtt-consistent"

    def test_envelope_is_max_of_abs_and_fraction(self):
        config = FilterConfig()
        assert config.envelope_ms(1.0) == 5.0       # abs wins at low RTT
        assert config.envelope_ms(100.0) == 10.0    # 10% wins at high RTT

    def test_high_rtt_wide_envelope(self, pipeline):
        """A remote interface at 100 ms keeps a 10 ms envelope."""
        rtts = [100.0, 104.0, 108.0, 109.0, 130.0, 150.0, 170.0, 101.0,
                140.0, 160.0]
        assert reason(pipeline, measurement(pch_rtts=rtts)) is None


class TestLGConsistent:
    def test_single_lg_passes(self, pipeline):
        assert reason(pipeline, measurement(pch_rtts=GOOD)) is None

    def test_agreeing_lgs_pass(self, pipeline):
        m = measurement(pch_rtts=GOOD, ripe_rtts=[r + 0.5 for r in GOOD])
        assert reason(pipeline, m) is None

    def test_disagreeing_lgs_discard(self, pipeline):
        m = measurement(pch_rtts=GOOD, ripe_rtts=[r + 20.0 for r in GOOD])
        assert reason(pipeline, m) == "lg-consistent"

    def test_proportional_tolerance_at_high_rtt(self, pipeline):
        """At 100 ms minima, a 8 ms disagreement is within 10%."""
        base = [100.0 + i * 0.3 for i in range(10)]
        m = measurement(pch_rtts=base, ripe_rtts=[r + 8.0 for r in base])
        assert reason(pipeline, m) is None


class TestASNChange:
    def test_stable_asn_passes(self, pipeline):
        m = measurement(pch_rtts=GOOD, asn_start=100, asn_end=100)
        assert reason(pipeline, m) is None

    def test_changed_asn_discards(self, pipeline):
        m = measurement(pch_rtts=GOOD, asn_start=100, asn_end=200)
        assert reason(pipeline, m) == "asn-change"

    def test_unidentified_passes(self, pipeline):
        m = measurement(pch_rtts=GOOD, asn_start=None, asn_end=200)
        assert reason(pipeline, m) is None


class TestPipeline:
    def test_order_matches_paper(self):
        assert FILTER_ORDER == (
            "sample-size", "ttl-switch", "ttl-match", "rtt-consistent",
            "lg-consistent", "asn-change",
        )

    def test_single_discard_reason_per_interface(self, pipeline):
        # Fails both sample-size (RIPE short) and TTL-match (rare TTL):
        # only the first filter in order gets the credit.
        m = measurement(pch_rtts=GOOD, ripe_rtts=GOOD[:3], pch_ttl=128,
                        ripe_ttl=128)
        report = pipeline.run([m])
        assert report.discard_counts["sample-size"] == 1
        assert report.discard_counts["ttl-match"] == 0
        assert report.total_discarded() == 1

    def test_survivors_trimmed_and_kept(self, pipeline):
        good = measurement(pch_rtts=GOOD)
        report = pipeline.run([good])
        assert list(report.passed) == [good]
        assert report.total_discarded() == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FilterConfig(min_replies_per_lg=0)
        with pytest.raises(ConfigurationError):
            FilterConfig(accepted_ttls=frozenset())


class TestPipelineEdgeCases:
    """Degenerate inputs the campaign can hand the pipeline."""

    def test_zero_operator_measurement_discarded_as_sample_size(self, pipeline):
        """A measurement no LG ever probed carries no evidence: discarded
        by the sample-size stage, not silently passed."""
        empty = measurement()  # no operators at all
        report = pipeline.run([empty])
        assert len(report.passed) == 0
        assert report.discard_counts["sample-size"] == 1
        key = (empty.ixp_acronym, empty.address.value)
        assert report.discard_reason[key] == "sample-size"

    def test_duplicate_keys_double_count_but_keep_last_reason(self, pipeline):
        """Two measurements of the same (IXP, address) are counted once
        each in discard_counts, while discard_reason (keyed by identity)
        keeps only the last outcome.  Documented behaviour: the campaign
        never produces duplicates (IXPDirectory rejects them), so the
        pipeline does not pay for dedup."""
        first = measurement(pch_rtts=GOOD[:3])           # sample-size discard
        second = measurement(pch_rtts=GOOD, pch_ttl=128)  # ttl-match discard
        assert (first.ixp_acronym, first.address.value) == (
            second.ixp_acronym, second.address.value
        )
        report = pipeline.run([first, second])
        assert report.total_discarded() == 2  # both counted
        key = (first.ixp_acronym, first.address.value)
        assert report.discard_reason[key] == "ttl-match"  # last one wins
        assert len(report.discard_reason) == 1

    def test_single_lg_world_passes_lg_consistent_vacuously(self, pipeline):
        """At single-LG IXPs the cross-LG check has nothing to compare:
        every interface passes it, however biased the one LG's view is."""
        biased = measurement(pch_rtts=[r + 40.0 for r in GOOD])
        report = pipeline.run([biased])
        assert report.passed  # survived the whole pipeline
        assert report.discard_counts["lg-consistent"] == 0

    def test_operator_with_batch_and_zero_replies_discarded(self, pipeline):
        """An operator that probed but got nothing back (empty ReplyBatch,
        the batch engine's representation) trips the per-LG floor."""
        import numpy as np

        from repro.net.icmp import ReplyBatch

        m = measurement(pch_rtts=GOOD)
        m.replies_by_operator["RIPE"] = ReplyBatch(
            rtt_ms=np.zeros(0), ttl=np.zeros(0, dtype=np.int64),
            sent_at_s=np.zeros(0),
        )
        report = pipeline.run([m])
        assert report.discard_counts["sample-size"] == 1


class TestArrayScalarEquivalence:
    """The segment-reduction pipeline and the per-interface stage loop of
    the reference (``tests/reference/filters.py``) are one pipeline:
    identical reports on real campaign evidence, for every drop-one
    ablation."""

    @pytest.fixture(scope="class")
    def measurements(self, mini_world):
        from repro.core.detection import CampaignConfig, ProbeCampaign

        return ProbeCampaign(mini_world, CampaignConfig(seed=13)).collect()

    @pytest.mark.parametrize("skip", (None, *FILTER_ORDER))
    def test_reports_identical(self, measurements, skip):
        import numpy as np

        from tests.reference.filters import (
            ReferenceFilterPipeline,
            reference_measurement,
        )

        arrays = FilterPipeline().run(measurements, skip=skip)
        scalar = ReferenceFilterPipeline().run(
            [reference_measurement(m) for m in measurements], skip=skip
        )
        assert arrays.discard_counts == scalar.discard_counts
        assert arrays.discard_reason == scalar.discard_reason
        assert len(arrays.passed) == len(scalar.passed)
        for a, b in zip(arrays.passed, scalar.passed):
            assert (a.ixp_acronym, a.address.value) == (
                b.ixp_acronym, b.address.value
            )
            assert a.operators() == b.operators()
            for op in a.operators():
                assert np.array_equal(a.rtts(op), b.rtts(op))
                assert np.array_equal(a.ttls(op), b.ttls(op))

    def test_untrimmed_survivors_keep_identity(self, measurements):
        """Untrimmed survivors are views of the campaign's table; trimmed
        ones are masked copies; the table itself is never modified."""
        import numpy as np

        before = measurements.rtt_ms.copy()
        report = FilterPipeline().run(measurements)
        assert report.passed.table is measurements
        views = 0
        for k, survivor in enumerate(report.passed):
            row = measurements[int(report.passed.rows[k])]
            for op in survivor.operators():
                if len(survivor.rtts(op)) == len(row.rtts(op)):
                    assert np.shares_memory(
                        survivor.rtts(op), measurements.rtt_ms
                    )
                    views += 1
                else:
                    assert not np.shares_memory(
                        survivor.rtts(op), measurements.rtt_ms
                    )
        assert views, "most survivors should be views"
        assert np.array_equal(measurements.rtt_ms, before)

    def test_hand_built_list_packs_into_a_table(self):
        m = measurement(pch_rtts=GOOD)
        report = FilterPipeline().run([m])  # a list, not a campaign table
        assert list(report.passed) == [m]
