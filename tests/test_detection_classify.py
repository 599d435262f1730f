"""Remoteness classification and RTT bands."""

import pytest
from hypothesis import given, strategies as st

from repro.core.detection.classify import (
    BAND_LABELS,
    REMOTENESS_THRESHOLD_MS,
    band_label,
    is_remote,
)
from repro.errors import AnalysisError


class TestThreshold:
    def test_paper_value(self):
        assert REMOTENESS_THRESHOLD_MS == 10.0

    @pytest.mark.parametrize("rtt,remote", [
        (0.5, False), (9.99, False), (10.0, True), (150.0, True),
    ])
    def test_is_remote(self, rtt, remote):
        assert is_remote(rtt) is remote

    def test_custom_threshold(self):
        assert is_remote(7.0, threshold_ms=5.0)
        assert not is_remote(7.0, threshold_ms=10.0)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            is_remote(-1.0)


class TestBands:
    @pytest.mark.parametrize("rtt,label", [
        (0.0, "<10ms"), (9.9, "<10ms"), (10.0, "10-20ms"), (19.9, "10-20ms"),
        (20.0, "20-50ms"), (49.9, "20-50ms"), (50.0, ">=50ms"),
        (500.0, ">=50ms"),
    ])
    def test_band_label(self, rtt, label):
        assert band_label(rtt) == label

    @given(st.floats(min_value=0, max_value=1e4, allow_nan=False))
    def test_every_rtt_has_exactly_one_band(self, rtt):
        label = band_label(rtt)
        assert label in BAND_LABELS

    @given(st.floats(min_value=0, max_value=1e4))
    def test_band_consistent_with_remoteness(self, rtt):
        """Everything at or above 10 ms is remote; <10ms band is direct."""
        assert (band_label(rtt) != "<10ms") == is_remote(rtt)
