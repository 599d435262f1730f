"""Statistics helpers and table rendering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import cdf_at
from repro.analysis.tables import render_table
from repro.errors import AnalysisError


class TestECDF:
    def test_basic(self):
        values = np.array([3.0, 1.0, 2.0])
        f = cdf_at(values, values)
        assert list(f) == pytest.approx([1.0, 1 / 3, 2 / 3])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            cdf_at(np.array([]), np.array([1.0]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=200))
    def test_monotone_and_ends_at_one(self, values):
        f = cdf_at(np.array(values), np.sort(values))
        assert np.all(np.diff(f) >= 0)
        assert f[-1] == pytest.approx(1.0)

    def test_cdf_at(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        at = cdf_at(values, np.array([0.5, 2.0, 10.0]))
        assert list(at) == pytest.approx([0.0, 0.5, 1.0])


class TestRenderTable:
    def test_alignment_and_content(self):
        out = render_table(
            ["IXP", "count"],
            [["AMS-IX", 665], ["TIE", 54]],
            title="Analyzed",
        )
        lines = out.splitlines()
        assert lines[0] == "Analyzed"
        assert "IXP" in lines[1] and "count" in lines[1]
        assert any("AMS-IX" in line and "665" in line for line in lines)

    def test_numeric_right_aligned(self):
        out = render_table(["n"], [[5], [123]])
        rows = out.splitlines()[2:]
        assert rows[0].endswith("5")
        assert rows[1].endswith("123")

    def test_float_formatting(self):
        out = render_table(["v"], [[0.123456], [12345.6]])
        assert "0.12" in out
        assert "1.23e+04" in out

    def test_ragged_rows_rejected(self):
        with pytest.raises(AnalysisError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out
