"""Aggregation of ensemble trials into mean ± confidence-interval summaries.

Confidence intervals use the Student-t critical value for the trial count
(the ensembles this repo runs are 8-32 trials, squarely where the normal
approximation is too tight); beyond 30 degrees of freedom the normal 1.96
is used.  Only the 95% level is supported — it is the one every report
prints, and silently accepting arbitrary levels with the wrong critical
value would be worse than refusing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AnalysisError

#: Two-sided 95% Student-t critical values, indexed by degrees of freedom.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)
_Z_95 = 1.960


def t_critical_95(df: int) -> float:
    """Two-sided 95% critical value for ``df`` degrees of freedom."""
    if df <= 0:
        raise AnalysisError("need at least 2 samples for a confidence interval")
    if df <= len(_T_95):
        return _T_95[df - 1]
    return _Z_95


@dataclass(frozen=True, slots=True)
class MeanCI:
    """A sample mean with its 95% confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        """Lower CI bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper CI bound."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_ci(values: list[float] | tuple[float, ...]) -> MeanCI:
    """Mean and 95% CI half-width of a sample (t-based; see module doc).

    A single observation yields a zero-width interval — the honest
    rendering of "we only ran one trial" — rather than an error, so
    reports degrade gracefully when most trials of a variant failed a
    guard (e.g. precision undefined because nothing was called remote).
    """
    values = [float(v) for v in values]
    if not values:
        raise AnalysisError("cannot aggregate an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return MeanCI(mean=mean, half_width=0.0, n=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_critical_95(n - 1) * math.sqrt(variance / n)
    return MeanCI(mean=mean, half_width=half, n=n)


def optional_mean_ci(values: list[float | None]) -> MeanCI | None:
    """:func:`mean_ci` over the defined values; None when all are None.

    Precision/recall-style metrics are undefined in some trials (nothing
    called remote, no true remotes); summaries aggregate the defined
    subset and render ``n/a`` only when *every* trial lacked the metric.
    """
    defined = [v for v in values if v is not None]
    return mean_ci(defined) if defined else None


@dataclass(frozen=True, slots=True)
class VariantSummary:
    """Aggregated metrics for one configuration variant."""

    variant: str
    trials: int
    precision: MeanCI | None  # None when undefined in every trial
    recall: MeanCI | None
    analyzed: MeanCI
    candidates: MeanCI
    discards: dict[str, MeanCI]
    remote_fraction_by_ixp: dict[str, MeanCI]
    shortfall: MeanCI
