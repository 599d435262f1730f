"""Distance-to-RTT model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.geo.latency import LatencyModel


class TestLatencyModel:
    def test_floor_applies_at_zero_distance(self):
        model = LatencyModel()
        assert model.baseline_rtt_ms(0.0) == pytest.approx(
            model.metro_floor_ms + model.device_overhead_ms
        )

    @given(st.floats(min_value=0, max_value=20_000))
    def test_monotone_in_distance(self, km):
        model = LatencyModel()
        assert model.baseline_rtt_ms(km + 100) >= model.baseline_rtt_ms(km)

    def test_band_thresholds_align_with_rtt_bands(self):
        """~660, ~1320 and ~3290 km of fiber sit at the 10/20/50 ms RTT
        bands."""
        model = LatencyModel()
        assert model.baseline_rtt_ms(660) == pytest.approx(10.0, rel=0.08)
        assert model.baseline_rtt_ms(1320) == pytest.approx(20.0, rel=0.08)
        assert model.baseline_rtt_ms(3290) == pytest.approx(50.0, rel=0.08)

    def test_invalid_stretch_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(path_stretch=0.9)

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel().baseline_rtt_ms(-5.0)
