"""Shared light-weight types and aliases used across subsystems."""

from __future__ import annotations

import enum
from typing import NewType

#: Autonomous System Number.  Plain ``int`` at runtime; the NewType makes
#: signatures self-documenting and lets type checkers catch swapped args.
ASN = NewType("ASN", int)

#: Seconds since the (simulated) campaign epoch.
SimTime = NewType("SimTime", float)


class PeeringPolicy(enum.Enum):
    """Peering policy of a network as advertised in PeeringDB.

    The paper (Section 4.2) groups potential peers by these policies to
    build its four peer groups.
    """

    OPEN = "open"
    SELECTIVE = "selective"
    RESTRICTIVE = "restrictive"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class NetworkKind(enum.Enum):
    """Business type of a network, mirroring Section 3.2's examples."""

    TIER1 = "tier1"
    TRANSIT = "transit"
    ACCESS = "access"
    CONTENT = "content"
    CDN = "cdn"
    HOSTING = "hosting"
    NREN = "nren"
    ENTERPRISE = "enterprise"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class TrafficDirection(enum.Enum):
    """Direction of transit traffic relative to the studied network."""

    INBOUND = "inbound"
    OUTBOUND = "outbound"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
