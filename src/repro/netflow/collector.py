"""NetFlow collection at the studied network's border routers.

The paper "used NetFlow to collect one month of traffic data at the
5-minute granularity in the ASBRs of RedIRIS" and joined it with BGP
tables to label each flow with its AS path.  :class:`FlowCollector`
synthesises exactly that joined dataset from a traffic matrix, a routing
table, and time-series profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.table import RoutingTable
from repro.errors import AnalysisError
from repro.netflow.flow import FlowRecord
from repro.netflow.timeseries import DiurnalProfile, month_of_bins
from repro.netflow.traffic import TrafficMatrix
from repro.types import ASN, TrafficDirection


@dataclass
class FlowCollector:
    """Produces flow records and aggregate series for the studied network.

    ``table`` may be None for collectors built by the trial-batch world
    views, which never materialize a routing table: the aggregate-series
    arithmetic (what the economics study consumes) only needs the traffic
    matrix, while per-flow records require the BGP join and raise without
    a table.
    """

    table: RoutingTable | None
    matrix: TrafficMatrix
    counterparties: list[ASN]
    days: int = 28

    def __post_init__(self) -> None:
        if len(self.counterparties) != self.matrix.count:
            raise AnalysisError(
                "counterparty list must align with the traffic matrix"
            )

    def flow_records(
        self, bin_index: int, top_n: int | None = None
    ) -> list[FlowRecord]:
        """Flow records for one 5-minute bin (optionally only top talkers).

        Rates in a single bin equal the network's average rate — the
        aggregate time variation is applied at series level, which is what
        the offload arithmetic consumes.  Emitting all ~30k counterparties
        per bin is possible but rarely useful; ``top_n`` keeps it sane.
        """
        if self.table is None:
            raise AnalysisError(
                "flow records need a routing table for the BGP join; this "
                "collector was built without one (trial-batch world view)"
            )
        order = np.argsort(self.matrix.total_bps)[::-1]
        if top_n is not None:
            order = order[:top_n]
        records: list[FlowRecord] = []
        for idx in order:
            counterparty = self.counterparties[int(idx)]
            entry = self.table.lookup(counterparty)
            for direction, rate in (
                (TrafficDirection.INBOUND, float(self.matrix.inbound_bps[idx])),
                (TrafficDirection.OUTBOUND, float(self.matrix.outbound_bps[idx])),
            ):
                if rate <= 0:
                    continue
                records.append(
                    FlowRecord(
                        bin_index=bin_index,
                        counterparty=counterparty,
                        direction=direction,
                        rate_bps=rate,
                        border_next_hop=entry.next_hop,
                    )
                )
        return records

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
