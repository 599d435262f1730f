"""Ping-based detection of remote peering at IXPs (paper Section 3).

Pipeline: :class:`ProbeCampaign` drives looking glasses over the four-month
window and yields raw per-interface measurements; the
:class:`FilterPipeline` applies the paper's six conservative filters in
order; :mod:`repro.core.detection.classify` turns surviving minimum RTTs
into remote/direct calls and distance bands; :class:`CampaignResult`
aggregates everything Figures 2–4 need; validation compares detector output
against ground truth the way Section 3.3 used TorIX.
"""

from repro.core.detection.campaign import CampaignConfig, ProbeCampaign
from repro.core.detection.measurements import (
    InterfaceMeasurement,
    MeasurementTable,
)
from repro.core.detection.filters import (
    FilterConfig,
    FilterPipeline,
    FILTER_ORDER,
)
from repro.core.detection.classify import (
    REMOTENESS_THRESHOLD_MS,
    RTT_BANDS,
    band_label,
    is_remote,
)
from repro.core.detection.results import AnalyzedInterface, CampaignResult
from repro.core.detection.validation import (
    GroundTruthReport,
    validate_against_truth,
    route_server_cross_check,
)
from repro.core.detection.sweep import (
    FilterDropPoint,
    ThresholdPoint,
    filter_drop_sweep,
    threshold_sweep,
)

__all__ = [
    "CampaignConfig",
    "ProbeCampaign",
    "InterfaceMeasurement",
    "MeasurementTable",
    "FilterConfig",
    "FilterPipeline",
    "FILTER_ORDER",
    "REMOTENESS_THRESHOLD_MS",
    "RTT_BANDS",
    "band_label",
    "is_remote",
    "AnalyzedInterface",
    "CampaignResult",
    "GroundTruthReport",
    "validate_against_truth",
    "route_server_cross_check",
    "FilterDropPoint",
    "ThresholdPoint",
    "filter_drop_sweep",
    "threshold_sweep",
]
