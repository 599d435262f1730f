"""Distance-to-latency model.

Maps great-circle distances to baseline round-trip propagation delays.
Section 3.2 reads the [10, 20), [20, 50) and [50, inf) ms min-RTT ranges
as roughly intercity, intercountry, and intercontinental distances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import FIBER_PATH_STRETCH, propagation_rtt_ms


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Deterministic baseline RTT as a function of distance.

    Parameters
    ----------
    path_stretch:
        Ratio of assumed fiber-route length to great-circle distance.
    metro_floor_ms:
        Minimum round-trip time inside a metro area: last-mile loops,
        patch panels and switch serialization never let the RTT reach the
        pure speed-of-light bound.
    device_overhead_ms:
        Round-trip processing overhead of the replying device's slow-path
        ICMP handling.
    """

    path_stretch: float = FIBER_PATH_STRETCH
    metro_floor_ms: float = 0.25
    device_overhead_ms: float = 0.05

    def __post_init__(self) -> None:
        if self.path_stretch < 1.0:
            raise ConfigurationError("path stretch below 1 is unphysical")
        if self.metro_floor_ms < 0 or self.device_overhead_ms < 0:
            raise ConfigurationError("latency floors cannot be negative")

    def baseline_rtt_ms(self, distance_km: float) -> float:
        """Minimum achievable RTT in milliseconds over ``distance_km``."""
        if distance_km < 0:
            raise ConfigurationError("distance cannot be negative")
        rtt = propagation_rtt_ms(distance_km, self.path_stretch)
        return max(rtt, self.metro_floor_ms) + self.device_overhead_ms
