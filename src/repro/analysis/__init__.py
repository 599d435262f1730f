"""Statistical helpers and report rendering used by benches and examples."""

from repro.analysis.stats import cdf_at
from repro.analysis.tables import render_table

__all__ = ["cdf_at", "render_table"]
