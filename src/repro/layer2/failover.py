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
