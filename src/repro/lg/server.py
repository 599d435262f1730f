"""Looking-glass vantages on IXP peering LANs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Pings issued per HTML query (Section 3.1, "Measurement overhead").
PCH_PINGS = 5
RIPE_PINGS = 3

#: Tail RTT of a looking glass's own port to the IXP switch.
LG_TAIL_RTT_MS = 0.05


@dataclass(frozen=True, slots=True)
class LGVantage:
    """What a sweep needs of one LG server: its name, operator and ping
    burst (the server's port is implied: a direct ``LG_TAIL_RTT_MS`` tail
    at the main site, without congestion)."""

    name: str
    operator: str  # "PCH" or "RIPE"
    pings_per_query: int

    @classmethod
    def at(cls, operator: str, ixp_acronym: str) -> "LGVantage":
        """The vantage of ``operator``'s LG server at one IXP."""
        if operator not in ("PCH", "RIPE"):
            raise ConfigurationError(f"unknown LG operator {operator!r}")
        return cls(
            name=f"{operator}@{ixp_acronym}",
            operator=operator,
            pings_per_query=PCH_PINGS if operator == "PCH" else RIPE_PINGS,
        )
