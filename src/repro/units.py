"""Unit helpers: traffic rates, time, and distance.

All internal computation uses SI base units (bits per second, seconds,
kilometres, milliseconds for RTTs where stated).  These helpers make
conversions explicit at module boundaries so magic constants never leak
into formulas.
"""

from __future__ import annotations

# --- traffic rate -----------------------------------------------------------

KBPS = 1_000.0
MBPS = 1_000_000.0
GBPS = 1_000_000_000.0
TBPS = 1_000_000_000_000.0


def format_rate(rate_bps: float) -> str:
    """Render a traffic rate with an adaptive unit, e.g. ``1.60 Gbps``."""
    if rate_bps >= TBPS:
        return f"{rate_bps / TBPS:.2f} Tbps"
    if rate_bps >= GBPS:
        return f"{rate_bps / GBPS:.2f} Gbps"
    if rate_bps >= MBPS:
        return f"{rate_bps / MBPS:.2f} Mbps"
    if rate_bps >= KBPS:
        return f"{rate_bps / KBPS:.2f} Kbps"
    return f"{rate_bps:.0f} bps"


# --- time -------------------------------------------------------------------

SECOND = 1.0
MINUTE = 60.0
HOUR = 3_600.0
DAY = 86_400.0
WEEK = 7 * DAY

#: NetFlow metering granularity used by the paper (Section 2.1, 4.1).
FIVE_MINUTES = 5 * MINUTE


def s_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * 1_000.0


# --- distance / propagation -------------------------------------------------

#: Speed of light in vacuum, km/s.
SPEED_OF_LIGHT_KM_S = 299_792.458

#: Effective signal speed in optical fiber (~2/3 c), km/s.
FIBER_SPEED_KM_S = SPEED_OF_LIGHT_KM_S * 2.0 / 3.0

#: Typical ratio of fiber-route length to great-circle distance.  Empirical
#: studies place circuity between 1.2 and 2; 1.52 reproduces common
#: "RTT ~ 1 ms per 100 km" engineering rules of thumb.
FIBER_PATH_STRETCH = 1.52


def propagation_rtt_ms(distance_km: float, stretch: float = FIBER_PATH_STRETCH) -> float:
    """Round-trip propagation delay in milliseconds over fiber.

    ``distance_km`` is the great-circle distance; ``stretch`` inflates it to
    an estimated fiber-route length.
    """
    one_way_s = distance_km * stretch / FIBER_SPEED_KM_S
    return s_to_ms(2.0 * one_way_s)
