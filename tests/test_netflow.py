"""NetFlow substrate: traffic rates, profiles, billing, collection."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.netflow.billing import (
    BillingReport,
    offload_billing_report,
    percentile_rate,
)
from repro.netflow.timeseries import DiurnalProfile, month_of_bins
from repro.netflow.traffic import (
    TrafficMatrix,
    TrafficMatrixConfig,
    rank_profile_totals,
    split_totals_by_kind,
)
from repro.rand import make_rng
from repro.types import NetworkKind, TrafficDirection


def traffic_matrix(kinds, config):
    """Rank-profile totals in shuffled order, split by kind."""
    rng = make_rng(config.seed)
    totals = rank_profile_totals(len(kinds), config, rng)
    return split_totals_by_kind(
        totals[rng.permutation(len(kinds))], kinds, config, rng)


class TestTimeseries:
    def test_month_of_bins(self):
        assert month_of_bins(28) == 28 * 288

    def test_mean_normalised(self):
        series = DiurnalProfile().series(days=14, seed=1)
        assert series.mean() == pytest.approx(1.0)

    def test_daily_peak_near_peak_hour(self):
        profile = DiurnalProfile(peak_hour=13.0, noise_sigma=0.0)
        day = profile.series(days=7, seed=0)[:288]
        peak_bin = int(np.argmax(day))
        assert 11 <= peak_bin * 5 / 60 <= 15

    def test_weekend_dip(self):
        profile = DiurnalProfile(weekend_dip=0.5, noise_sigma=0.0)
        series = profile.series(days=7, seed=0)
        weekday_mean = series[: 5 * 288].mean()
        weekend_mean = series[5 * 288:].mean()
        assert weekend_mean < 0.7 * weekday_mean

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            DiurnalProfile(peak_hour=25.0)
        with pytest.raises(ConfigurationError):
            month_of_bins(0)


class TestTraffic:
    def test_totals_normalised_exactly(self):
        config = TrafficMatrixConfig(seed=0, inbound_total_bps=1e9,
                                     outbound_total_bps=5e8)
        kinds = [NetworkKind.ACCESS] * 500 + [NetworkKind.CONTENT] * 500
        matrix = traffic_matrix(kinds, config)
        assert matrix.inbound_bps.sum() == pytest.approx(1e9)
        assert matrix.outbound_bps.sum() == pytest.approx(5e8)

    def test_content_inbound_heavy(self):
        config = TrafficMatrixConfig(seed=1)
        kinds = [NetworkKind.CONTENT] * 2000 + [NetworkKind.ACCESS] * 2000
        matrix = traffic_matrix(kinds, config)
        content_share = matrix.inbound_bps[:2000].sum() / (
            matrix.inbound_bps[:2000].sum() + matrix.outbound_bps[:2000].sum()
        )
        access_share = matrix.inbound_bps[2000:].sum() / (
            matrix.inbound_bps[2000:].sum() + matrix.outbound_bps[2000:].sum()
        )
        assert content_share > 0.7
        assert access_share < 0.45

    def test_rank_profile_has_bend(self):
        config = TrafficMatrixConfig(seed=0, bend_rank=1000, noise_sigma=0.0)
        totals = rank_profile_totals(10_000, config, make_rng(0))
        head_slope = np.log(totals[900] / totals[90]) / np.log(10)
        tail_slope = np.log(totals[9000] / totals[1500]) / np.log(9000 / 1500)
        assert tail_slope < head_slope

    def test_ranked_descending(self):
        matrix = traffic_matrix([NetworkKind.ACCESS] * 100,
                                TrafficMatrixConfig(seed=0))
        ranked = matrix.ranked("inbound")
        assert np.all(np.diff(ranked) <= 0)
        with pytest.raises(ConfigurationError):
            matrix.ranked("sideways")

    def test_split_alignment_checked(self):
        config = TrafficMatrixConfig(seed=0)
        with pytest.raises(ConfigurationError):
            split_totals_by_kind(np.ones(5), [NetworkKind.ACCESS] * 4,
                                 config, make_rng(0))

    def test_matrix_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficMatrix(inbound_bps=np.ones(3), outbound_bps=np.ones(4))
        with pytest.raises(ConfigurationError):
            TrafficMatrix(inbound_bps=-np.ones(3), outbound_bps=np.ones(3))


class TestBilling:
    def test_percentile_rate(self):
        series = np.arange(100, dtype=float)
        assert percentile_rate(series, 95.0) == pytest.approx(94.05)

    def test_bill_scales_with_price(self):
        series = np.full(100, 2e6)  # 2 Mbps flat
        report = offload_billing_report(series, np.zeros(100),
                                        price_per_mbps=3.0)
        assert report.before_bill == pytest.approx(6.0)

    def test_offload_report(self):
        transit = np.full(100, 10e6)
        offload = np.full(100, 4e6)
        report = offload_billing_report(transit, offload, price_per_mbps=1.0)
        assert report.savings_fraction == pytest.approx(0.4)
        assert report.after_bill == pytest.approx(6.0)

    def test_offload_cannot_exceed_transit(self):
        with pytest.raises(AnalysisError):
            offload_billing_report(np.full(10, 1e6), np.full(10, 2e6))

    def test_empty_series_rejected(self):
        with pytest.raises(AnalysisError):
            percentile_rate(np.array([]))

    def test_billing_report_zero_baseline(self):
        # An all-quiet series has no bill to reduce; 0.0 keeps ensemble
        # trials alive instead of aborting on one silent seed.
        report = BillingReport(before_rate_bps=0.0, after_rate_bps=0.0,
                               price_per_mbps=1.0)
        assert report.savings_fraction == 0.0

    def test_all_quiet_series_bill_zero_savings(self):
        quiet = np.zeros(100)
        report = offload_billing_report(quiet, quiet, price_per_mbps=2.0)
        assert report.before_bill == 0.0
        assert report.savings_fraction == 0.0

    def test_offload_within_tolerance_is_clipped(self):
        # Numeric noise can push offload a hair over transit in a bin; the
        # remainder is clipped to zero instead of going (barely) negative.
        transit = np.full(10, 1e6)
        offload = transit + 5e-7  # inside the 1e-6 guard band
        report = offload_billing_report(transit, offload)
        assert report.after_rate_bps == 0.0
        assert report.savings_fraction == pytest.approx(1.0)

    def test_full_offload_saves_everything(self):
        transit = np.full(10, 1e6)
        report = offload_billing_report(transit, transit)
        assert report.after_bill == 0.0
        assert report.savings_fraction == pytest.approx(1.0)


class TestCollector:
    def test_aggregate_series_mask(self, small_offload_world):
        collector = small_offload_world.collector
        n = len(small_offload_world.contributing)
        full = collector.aggregate_series(TrafficDirection.INBOUND)
        half_mask = np.zeros(n, dtype=bool)
        half_mask[: n // 2] = True
        half = collector.aggregate_series(TrafficDirection.INBOUND,
                                          mask=half_mask)
        assert full.shape == half.shape == (collector.bins(),)
        assert half.mean() < full.mean()

    def test_bad_mask_rejected(self, small_offload_world):
        collector = small_offload_world.collector
        with pytest.raises(AnalysisError):
            collector.aggregate_series(TrafficDirection.INBOUND,
                                       mask=np.zeros(3, dtype=bool))
