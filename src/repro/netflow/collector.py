"""NetFlow collection at the studied network's border routers.

The paper "used NetFlow to collect one month of traffic data at the
5-minute granularity in the ASBRs of RedIRIS".  :class:`FlowCollector`
synthesises the aggregate 5-minute series of that dataset from a traffic
matrix and time-series profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.netflow.timeseries import DiurnalProfile, month_of_bins
from repro.netflow.traffic import TrafficMatrix
from repro.types import TrafficDirection


@dataclass
class FlowCollector:
    """Produces aggregate traffic series for the studied network."""

    matrix: TrafficMatrix
    days: int = 28

    def aggregate_rate(
        self, direction: TrafficDirection, mask: np.ndarray | None = None
    ) -> float:
        """Average rate of a subset of counterparties (None = all)."""
        rates = (
            self.matrix.inbound_bps
            if direction is TrafficDirection.INBOUND
            else self.matrix.outbound_bps
        )
        if mask is not None:
            if mask.shape != rates.shape:
                raise AnalysisError("mask must align with the traffic matrix")
            rates = rates[mask]
        return float(rates.sum())

    def aggregate_series(
        self,
        direction: TrafficDirection,
        mask: np.ndarray | None = None,
        profile: DiurnalProfile | None = None,
        seed: int = 0,
    ) -> np.ndarray:
        """Aggregate 5-minute series for a subset of counterparties.

        ``mask`` selects the networks to sum (None = all).  The aggregate
        average is modulated by the diurnal/weekly profile, matching how
        Figure 5b plots transit vs offload-potential series.
        """
        average = self.aggregate_rate(direction, mask)
        profile = profile or DiurnalProfile()
        return average * profile.series(self.days, seed=seed)

    def bins(self) -> int:
        """Number of 5-minute bins in the collection window."""
        return month_of_bins(self.days)
