"""Transit-fallback RTT shifts while a remote peer's pseudowire is dark.

A remote peer reaches the IXP over a long-haul pseudowire (Section 2);
when that circuit goes dark its routes fall back to the transit path,
and probes toward its IXP interface see the transit detour instead of
the tether.  :class:`FailoverState` is the deterministic record of those
dark windows — per interface address, a merged set of window edges plus
the extra RTT the transit detour adds while inside one.  It is built
once per fault schedule and passed *alongside* the world (never mutated
into it) so cached worlds stay shareable across trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.addr import IPv4Address


@dataclass(frozen=True, slots=True)
class FailoverState:
    """Dark windows and transit-detour penalties, keyed by address value.

    ``windows[address.value] = (edges, extra_ms)`` where ``edges`` is a
    flat sorted array of merged window boundaries (start, end, start,
    end, ...) and ``extra_ms`` the RTT the transit path adds while the
    pseudowire is dark.  Addresses absent from the map never fail over.
    """

    windows: dict[int, tuple[np.ndarray, float]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.windows)

    def extra_ms(self, address: IPv4Address, time_s: float) -> float:
        """Transit-detour RTT penalty for one probe instant (0 when lit)."""
        entry = self.windows.get(address.value)
        if entry is None:
            return 0.0
        edges, extra = entry
        if np.searchsorted(edges, time_s, side="right") % 2 == 1:
            return extra
        return 0.0
