"""End-to-end detection study on the mini world: the Section 3 pipeline."""

import numpy as np
import pytest

from repro.core.detection import CampaignConfig, ProbeCampaign
from repro.core.detection.validation import (
    route_server_cross_check,
    validate_against_truth,
)
from repro.sim.detection_world import CONGESTED, OS_CHANGE, STALE


class TestPipelineIntegration:
    def test_filters_catch_their_behaviors(self, mini_views, mini_result):
        """Each pathological behaviour must be absent from the analyzed set."""
        analyzed_keys = {
            (i.ixp_acronym, i.address.value) for i in mini_result.analyzed
        }
        for key, truth in mini_views.truth.items():
            if truth.behavior in (STALE, OS_CHANGE):
                assert key not in analyzed_keys, truth.behavior

    def test_congested_mostly_filtered(self, mini_views, mini_result):
        analyzed_keys = {
            (i.ixp_acronym, i.address.value) for i in mini_result.analyzed
        }
        congested = [
            key for key, t in mini_views.truth.items() if t.behavior == CONGESTED
        ]
        if congested:
            survived = sum(1 for key in congested if key in analyzed_keys)
            assert survived <= max(2, 0.35 * len(congested))

    def test_min_rtt_close_to_ground_truth_baseline(self, mini_views,
                                                    mini_result):
        """Measured minima approach the physical base RTT from above."""
        errors = []
        for iface in mini_result.analyzed:
            truth = mini_views.truth_for(iface.ixp_acronym, iface.address)
            if truth.behavior != "normal":
                continue
            assert iface.min_rtt_ms >= truth.base_rtt_ms - 1e-6
            errors.append(iface.min_rtt_ms - truth.base_rtt_ms)
        assert np.median(errors) < 0.5

    def test_detection_quality(self, mini_world, mini_result):
        report = validate_against_truth(mini_world, mini_result)
        assert report.precision > 0.97
        assert report.recall > 0.80

    def test_rerun_identical(self, mini_world, mini_result):
        again = ProbeCampaign(mini_world, CampaignConfig(seed=13)).run()
        assert again.analyzed_count() == mini_result.analyzed_count()
        assert again.discard_counts == mini_result.discard_counts
        assert np.array_equal(again.min_rtts(), mini_result.min_rtts())

    def test_threshold_ablation_monotone(self, mini_world):
        """Lower thresholds can only call more interfaces remote."""
        counts = []
        for threshold in (5.0, 10.0, 20.0):
            result = ProbeCampaign(
                mini_world,
                CampaignConfig(seed=13, remoteness_threshold_ms=threshold),
            ).run()
            counts.append(len(result.remote_interfaces()))
        assert counts[0] >= counts[1] >= counts[2]

    def test_cross_check_validates_methodology(self, mini_world, mini_result):
        report = route_server_cross_check(mini_world, mini_result, "TOP-IX")
        assert report.mean_ms < 2.0
