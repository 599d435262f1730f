"""Full-study report generation.

Turns the three studies' outputs into the plain-text reports a release
user wants: one call, every headline number.  Backed by the same result
objects the benches use, so the reports always agree with
`benchmarks/out/`.
"""

from repro.reporting.detection import detection_report
from repro.reporting.offload import offload_report
from repro.reporting.economics import economics_report
from repro.reporting.ensembles import (
    ensemble_title,
    render_economics_ensemble_report,
    render_ensemble_report,
    render_failover_ensemble_report,
    render_joint_ensemble_report,
    render_mega_report,
    render_offload_ensemble_report,
)

__all__ = [
    "detection_report",
    "economics_report",
    "ensemble_title",
    "offload_report",
    "render_economics_ensemble_report",
    "render_ensemble_report",
    "render_failover_ensemble_report",
    "render_joint_ensemble_report",
    "render_mega_report",
    "render_offload_ensemble_report",
]
