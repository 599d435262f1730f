"""NetFlow-style traffic substrate (paper Section 4.1).

The offload study consumes one month of 5-minute traffic data collected at
the studied network's border routers.  This package provides the
collector's aggregate series, the per-network rate matrix calibrated to
Figure 5a's double-Pareto rank profile, the diurnal/weekly time-series
profiles of Figure 5b, and the 95th-percentile billing arithmetic of
Section 2.1.
"""

from repro.netflow.collector import FlowCollector
from repro.netflow.traffic import TrafficMatrix, TrafficMatrixConfig
from repro.netflow.timeseries import DiurnalProfile, month_of_bins
from repro.netflow.billing import BillingReport

__all__ = [
    "FlowCollector",
    "TrafficMatrix",
    "TrafficMatrixConfig",
    "DiurnalProfile",
    "month_of_bins",
    "BillingReport",
]
