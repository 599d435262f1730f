"""Plain-text study reports.

Every report a front end prints is a multi-seed study report: the
registry renderers of :mod:`repro.reporting.ensembles`, each called with
its run's one aggregate by :func:`repro.experiments.requests.
render_report`.  Single runs (``repro detect``, ``repro offload``,
``repro report``) are one-seed studies and report the same way.
"""

from repro.reporting.ensembles import (
    ensemble_title,
    expansion_consensus,
    render_economics_ensemble_report,
    render_ensemble_report,
    render_failover_ensemble_report,
    render_joint_ensemble_report,
    render_mega_report,
    render_offload_ensemble_report,
)

__all__ = [
    "ensemble_title",
    "expansion_consensus",
    "render_economics_ensemble_report",
    "render_ensemble_report",
    "render_failover_ensemble_report",
    "render_joint_ensemble_report",
    "render_mega_report",
    "render_offload_ensemble_report",
]
