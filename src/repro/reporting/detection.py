"""The Section 3 study as one rendered report."""

from __future__ import annotations

from repro.analysis.stats import cdf_at
from repro.analysis.tables import render_table
from repro.core.detection.classify import BAND_LABELS
from repro.core.detection.filters import FILTER_ORDER
from repro.core.detection.results import CampaignResult
from repro.core.detection.validation import (
    route_server_cross_check,
    validate_against_truth,
)
from repro.sim.detection_world import DetectionWorld

import numpy as np


def detection_report(
    world: DetectionWorld, result: CampaignResult, validate: bool = True
) -> str:
    """Render the full detection-study report as plain text."""
    sections = [
        _header(result),
        _filter_section(result),
        _cdf_section(result),
        _band_section(result),
        _network_section(result),
    ]
    if validate:
        sections.append(_validation_section(world, result))
    return "\n\n".join(sections)


def _header(result: CampaignResult) -> str:
    return (
        "REMOTE PEERING DETECTION STUDY\n"
        f"candidate interfaces : {result.candidate_count}\n"
        f"analyzed interfaces  : {result.analyzed_count()}\n"
        f"remoteness threshold : {result.threshold_ms:g} ms"
    )


def _filter_section(result: CampaignResult) -> str:
    rows = [[name, result.discard_counts.get(name, 0)] for name in FILTER_ORDER]
    rows.append(["TOTAL", sum(result.discard_counts.values())])
    return render_table(["filter", "discarded"], rows,
                        title="Filter pipeline")


def _cdf_section(result: CampaignResult) -> str:
    rtts = result.min_rtts()
    points = np.array([0.3, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
    fractions = cdf_at(rtts, points)
    rows = [[f"{p:g} ms", f"{float(f):.3f}"] for p, f in zip(points, fractions)]
    return render_table(["min RTT <=", "fraction"], rows,
                        title="Minimum-RTT distribution (Figure 2)")


def _band_section(result: CampaignResult) -> str:
    rows = []
    for acronym, bands in sorted(result.band_counts_by_ixp().items()):
        remote = sum(v for k, v in bands.items() if k != "<10ms")
        rows.append([acronym, *(bands[b] for b in BAND_LABELS), remote])
    table = render_table(["IXP", *BAND_LABELS, "remote"], rows,
                         title="Per-IXP classification (Figure 3)")
    return (
        table
        + f"\nIXPs with remote peering: "
          f"{len(result.ixps_with_remote_peering())}/"
          f"{len(result.studied_ixps())} "
          f"({result.remote_spread_fraction():.0%})"
    )


def _network_section(result: CampaignResult) -> str:
    counts = result.ixp_count_distribution()
    remote_counts = result.ixp_count_distribution(remote_only=True)
    rows = [[k, counts[k], remote_counts.get(k, 0)] for k in sorted(counts)]
    table = render_table(
        ["IXP count", "identified", "remotely peering"], rows,
        title="Network IXP counts (Figure 4a)",
    )
    return (
        table
        + f"\nidentified networks: {len(result.identified_networks())}"
        + f"\nremotely peering networks: "
          f"{len(result.remotely_peering_networks())}"
    )


def _validation_section(world: DetectionWorld, result: CampaignResult) -> str:
    truth = validate_against_truth(world, result)
    lines = [
        "Validation (Section 3.3)",
        f"precision {truth.precision:.4f}, recall {truth.recall:.4f} over "
        f"{truth.total} interfaces",
    ]
    if "TorIX" in world.exchange_index:
        cross = route_server_cross_check(world, result, "TorIX")
        lines.append(
            f"TorIX cross-check: mean {cross.mean_ms:.2f} ms, "
            f"variance {cross.variance_ms2:.2f} ms² (paper: 0.3 / 1.6)"
        )
    return "\n".join(lines)
