"""The one aggregate of a study run: mean ± 95% CI of every metric.

:func:`aggregate` reduces a finished run to ``{variant: {metric:
MeanCI}}`` over ``Study.metrics`` of its surviving trials.  It is what
every report (:func:`repro.experiments.requests.render_report`), the
``repro serve`` job's ``metrics`` and the speed benchmark read; nothing
else averages trials.

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
from repro.experiments.engine import Study, StudyResult

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


#: Per-variant metric aggregates: ``{variant: {metric: MeanCI}}``.
Aggregates = dict[str, dict[str, MeanCI]]


def aggregate(study: Study, result: StudyResult) -> Aggregates:
    """``mean_ci`` of every ``study.metrics`` key, per variant.

    Variants and metrics appear in trial order (first appearance); a
    metric a trial leaves out — precision with nothing called remote, a
    remote fraction for an IXP with no analyzed interface — is averaged
    over the trials that report it.  Variants without a surviving trial
    are absent.
    """
    samples: dict[str, dict[str, list[float]]] = {}
    for trial in result.trials:
        per_variant = samples.setdefault(trial.variant, {})
        for metric, value in study.metrics(trial).items():
            per_variant.setdefault(metric, []).append(value)
    return {
        variant: {metric: mean_ci(v) for metric, v in metrics.items()}
        for variant, metrics in samples.items()
    }
