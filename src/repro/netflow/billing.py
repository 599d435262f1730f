"""95th-percentile transit billing (paper Section 2.1).

Transit is "metered at 5-minute intervals and billed on a monthly basis,
with the charge computed by multiplying a per-Mbps price and the 95th
percentile of the 5-minute traffic rates".  The offload study's punchline
— peaks of offload potential coincide with transit peaks — matters
precisely because of this billing scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.units import MBPS


def percentile_rate(series_bps: np.ndarray, percentile: float = 95.0) -> float:
    """The billing rate: the given percentile of 5-minute rates."""
    if series_bps.size == 0:
        raise AnalysisError("cannot bill an empty series")
    if np.any(series_bps < 0):
        raise AnalysisError("negative rates in billing series")
    return float(np.percentile(series_bps, percentile))


@dataclass(frozen=True, slots=True)
class BillingReport:
    """Before/after comparison of a transit bill under traffic offload."""

    before_rate_bps: float
    after_rate_bps: float
    price_per_mbps: float

    @property
    def before_bill(self) -> float:
        """Monthly bill without offload."""
        return self.before_rate_bps / MBPS * self.price_per_mbps

    @property
    def after_bill(self) -> float:
        """Monthly bill with the offloaded traffic removed."""
        return self.after_rate_bps / MBPS * self.price_per_mbps

    @property
    def savings_fraction(self) -> float:
        """Relative reduction of the transit bill.

        A zero baseline (an all-quiet traffic series — possible for a
        sparsely-drawn ensemble world) yields 0.0 rather than an error:
        there was no bill, so nothing was saved, and one silent seed must
        not abort a whole ensemble trial.
        """
        if self.before_bill == 0:
            return 0.0
        return 1.0 - self.after_bill / self.before_bill


def offload_billing_report(
    transit_series_bps: np.ndarray,
    offload_series_bps: np.ndarray,
    price_per_mbps: float = 1.0,
    percentile: float = 95.0,
) -> BillingReport:
    """Billing impact of shifting ``offload_series`` off the transit link."""
    if transit_series_bps.shape != offload_series_bps.shape:
        raise AnalysisError("series must align bin-for-bin")
    remaining = transit_series_bps - offload_series_bps
    if np.any(remaining < -1e-6):
        raise AnalysisError("offload exceeds transit traffic in some bins")
    remaining = np.clip(remaining, 0.0, None)
    return BillingReport(
        before_rate_bps=percentile_rate(transit_series_bps, percentile),
        after_rate_bps=percentile_rate(remaining, percentile),
        price_per_mbps=price_per_mbps,
    )


@dataclass(frozen=True, slots=True)
class FailoverBillingReport:
    """Percentile billing of offload savings eroded by failover bursts.

    ``ideal`` is the after-offload rate a fault-free month would bill;
    ``realized`` re-adds the traffic that returned to transit while
    pseudowires were dark.  The 95th-percentile rule is exactly what makes
    short bursts expensive: a few dark 5-minute bins can move the billed
    percentile even when the average barely shifts (Section 5's risk).
    """

    before_rate_bps: float
    ideal_after_rate_bps: float
    realized_after_rate_bps: float
    price_per_mbps: float

    @property
    def before_bill(self) -> float:
        return self.before_rate_bps / MBPS * self.price_per_mbps

    @property
    def ideal_after_bill(self) -> float:
        return self.ideal_after_rate_bps / MBPS * self.price_per_mbps

    @property
    def realized_after_bill(self) -> float:
        return self.realized_after_rate_bps / MBPS * self.price_per_mbps

    @property
    def ideal_savings_fraction(self) -> float:
        """Savings a fault-free month would deliver (zero-baseline -> 0)."""
        if self.before_bill == 0:
            return 0.0
        return 1.0 - self.ideal_after_bill / self.before_bill

    @property
    def realized_savings_fraction(self) -> float:
        """Savings actually billed after failover bursts (zero-baseline -> 0)."""
        if self.before_bill == 0:
            return 0.0
        return 1.0 - self.realized_after_bill / self.before_bill

    @property
    def burst_penalty(self) -> float:
        """Extra monthly charge the failover bursts caused."""
        return self.realized_after_bill - self.ideal_after_bill


def failover_billing_report(
    transit_series_bps: np.ndarray,
    offload_series_bps: np.ndarray,
    fallback_series_bps: np.ndarray,
    price_per_mbps: float = 1.0,
    percentile: float = 95.0,
) -> FailoverBillingReport:
    """Billing impact of offload whose circuits intermittently fail over.

    ``fallback_series`` is the slice of the offloaded traffic that fell
    back to transit (per 5-minute bin); it can never exceed what was
    offloaded in that bin.
    """
    if not (
        transit_series_bps.shape
        == offload_series_bps.shape
        == fallback_series_bps.shape
    ):
        raise AnalysisError("series must align bin-for-bin")
    if np.any(fallback_series_bps < -1e-6):
        raise AnalysisError("negative fallback traffic")
    if np.any(fallback_series_bps > offload_series_bps + 1e-6):
        raise AnalysisError("fallback exceeds offloaded traffic in some bins")
    ideal = transit_series_bps - offload_series_bps
    if np.any(ideal < -1e-6):
        raise AnalysisError("offload exceeds transit traffic in some bins")
    ideal = np.clip(ideal, 0.0, None)
    realized = np.clip(
        transit_series_bps - offload_series_bps + fallback_series_bps,
        0.0, None,
    )
    return FailoverBillingReport(
        before_rate_bps=percentile_rate(transit_series_bps, percentile),
        ideal_after_rate_bps=percentile_rate(ideal, percentile),
        realized_after_rate_bps=percentile_rate(realized, percentile),
        price_per_mbps=price_per_mbps,
    )
