"""Remoteness classification of analyzed interfaces (Section 3.1/3.2).

The paper classifies a network as remotely peering when the minimum RTT of
its IXP interface exceeds 10 ms, and reads the 10–20 / 20–50 / 50+ ms
ranges as roughly intercity / intercountry / intercontinental circuits.
"""

from __future__ import annotations

from repro.errors import AnalysisError

#: The paper's conservative remoteness threshold.
REMOTENESS_THRESHOLD_MS = 10.0

#: The four min-RTT ranges of Figures 3/4b: (label, low inclusive, high
#: exclusive).
RTT_BANDS: tuple[tuple[str, float, float], ...] = (
    ("<10ms", 0.0, 10.0),
    ("10-20ms", 10.0, 20.0),
    ("20-50ms", 20.0, 50.0),
    (">=50ms", 50.0, float("inf")),
)

BAND_LABELS: tuple[str, ...] = tuple(band[0] for band in RTT_BANDS)


def is_remote(min_rtt_ms: float, threshold_ms: float = REMOTENESS_THRESHOLD_MS) -> bool:
    """Whether a minimum RTT classifies the interface as remotely peering."""
    if min_rtt_ms < 0:
        raise AnalysisError(f"negative RTT {min_rtt_ms}")
    return min_rtt_ms >= threshold_ms


def band_label(min_rtt_ms: float) -> str:
    """The Figure 3 band a minimum RTT falls into."""
    if min_rtt_ms < 0:
        raise AnalysisError(f"negative RTT {min_rtt_ms}")
    for label, low, high in RTT_BANDS:
        if low <= min_rtt_ms < high:
            return label
    raise AnalysisError(f"unclassifiable RTT {min_rtt_ms}")  # pragma: no cover

