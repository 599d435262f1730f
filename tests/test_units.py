"""Units and conversion helpers."""

import math

import pytest

from repro import units


class TestRates:
    def test_format_rate_picks_unit(self):
        assert units.format_rate(1.6e9) == "1.60 Gbps"
        assert units.format_rate(2.5e6) == "2.50 Mbps"
        assert units.format_rate(3.2e12) == "3.20 Tbps"
        assert units.format_rate(1500) == "1.50 Kbps"
        assert units.format_rate(42) == "42 bps"


class TestTime:
    def test_five_minutes_constant(self):
        assert units.FIVE_MINUTES == 300.0

    def test_week_is_seven_days(self):
        assert units.WEEK == 7 * units.DAY


class TestPropagation:
    def test_fiber_slower_than_light(self):
        assert units.FIBER_SPEED_KM_S < units.SPEED_OF_LIGHT_KM_S

    def test_rtt_scales_linearly_with_distance(self):
        one = units.propagation_rtt_ms(100.0)
        ten = units.propagation_rtt_ms(1000.0)
        assert ten == pytest.approx(10 * one)

    def test_rule_of_thumb_1ms_per_100km(self):
        # With the default stretch, 100 km of great-circle distance is
        # within ~2.5x of the classic 1 ms RTT rule of thumb.
        rtt = units.propagation_rtt_ms(100.0)
        assert 0.5 < rtt < 2.5

    def test_zero_distance_zero_delay(self):
        assert units.propagation_rtt_ms(0.0) == 0.0

    def test_custom_stretch(self):
        flat = units.propagation_rtt_ms(1000.0, stretch=1.0)
        stretched = units.propagation_rtt_ms(1000.0, stretch=2.0)
        assert stretched == pytest.approx(2 * flat)
        assert not math.isnan(flat)
