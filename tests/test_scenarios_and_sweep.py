"""Named scenarios and the detector's threshold and drop-one-filter
sensitivity, run on the two primitives: ``validate_against_truth`` at a
threshold and ``FilterPipeline.run`` with one stage skipped."""

import numpy as np
import pytest

from repro.core.detection import (
    FILTER_ORDER,
    CampaignConfig,
    FilterPipeline,
    ProbeCampaign,
    validate_against_truth,
)
from repro.core.detection.results import build_result
from repro.errors import ConfigurationError
from repro.experiments.requests import resolve
from repro.sim import scenarios


class TestScenarios:
    def test_mini3(self):
        world = scenarios.mini3(seed=11)
        assert {e.acronym for e in world.exchanges} == set(scenarios.MINI_IXPS)

    def test_rediris_small(self, small_offload_world):
        assert len(small_offload_world.contributing) == 3000
        assert len(small_offload_world.memberships) == 65

    def test_scenarios_deterministic(self):
        a = scenarios.mini3(seed=4)
        b = scenarios.mini3(seed=4)
        assert np.array_equal(a.table.ixp, b.table.ixp)
        assert np.array_equal(a.table.address, b.table.address)


class TestThresholdSweep:
    def test_monotone_tradeoff(self, mini_world, mini_result):
        thresholds = (5.0, 10.0, 20.0)
        calls = [
            sum(1 for i in mini_result.analyzed if i.remote(t))
            for t in thresholds
        ]
        assert calls == sorted(calls, reverse=True)
        recalls = [
            validate_against_truth(mini_world, mini_result, threshold_ms=t)
            .recall
            for t in thresholds
        ]
        assert recalls == sorted(recalls, reverse=True)

    def test_paper_threshold_precision(self, mini_world, mini_result):
        report = validate_against_truth(
            mini_world, mini_result, threshold_ms=10.0
        )
        assert report.precision > 0.97

    def test_invalid_thresholds(self):
        # The threshold grid is the detection request's threshold_ms axis.
        with pytest.raises(ConfigurationError):
            resolve("detection", {"threshold_ms": [0.0]})
        with pytest.raises(ConfigurationError):
            resolve("detection", {"threshold_ms": []})


def drop_one_filter(world, measurements):
    """Per skipped filter (None = full pipeline): (analyzed, truth report)."""
    pipeline = FilterPipeline()
    points = {}
    for dropped in (None, *FILTER_ORDER):
        report = pipeline.run(measurements, skip=dropped)
        result = build_result(measurements, report, threshold_ms=10.0)
        points[dropped] = (
            report, result.analyzed_count(),
            validate_against_truth(world, result),
        )
    return points


class TestFilterDropSweep:
    @pytest.fixture(scope="class")
    def raw_measurements(self, mini_world):
        campaign = ProbeCampaign(mini_world, CampaignConfig(seed=13))
        return campaign.collect()

    @pytest.fixture(scope="class")
    def points(self, mini_world, raw_measurements):
        return drop_one_filter(mini_world, raw_measurements)

    def test_full_pipeline_is_baseline(self, points):
        _, baseline, _ = points[None]
        for _, analyzed, _ in points.values():
            # Removing a filter can only admit more interfaces.
            assert analyzed >= baseline

    def test_every_filter_swept(self, points):
        assert len(points) == 7  # baseline + six filters
        for dropped in FILTER_ORDER:
            # A skipped stage is charged with no discards.
            assert points[dropped][0].discard_counts[dropped] == 0

    def test_rtt_consistent_guards_precision(self, points):
        baseline_fp = points[None][2].false_positives
        no_rtt_fp = points["rtt-consistent"][2].false_positives
        assert no_rtt_fp >= baseline_fp

    def test_unknown_filter_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterPipeline().run([], skip="no-such-filter")
