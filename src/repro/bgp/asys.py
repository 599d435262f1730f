"""Autonomous systems as economic entities."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.cities import City
from repro.types import ASN, NetworkKind, PeeringPolicy


@dataclass(slots=True)
class AutonomousSystem:
    """One AS: the unit of layer-3 economic modeling the paper critiques.

    Parameters
    ----------
    asn:
        AS number.
    name:
        Operator name (synthetic names in generated worlds).
    kind:
        Business type (tier-1, transit, access, content, CDN, ...).
    home_city:
        Where the network's infrastructure is centred; drives remote-peering
        RTTs and which IXPs it can reach directly.
    policy:
        Peering policy as it would appear in PeeringDB.
    address_space:
        Number of IPv4 addresses the AS originates.  Figure 10's
        "reachable IP interfaces" metric sums these over customer cones.
    """

    asn: ASN
    name: str
    kind: NetworkKind = NetworkKind.ENTERPRISE
    home_city: City | None = None
    policy: PeeringPolicy = PeeringPolicy.SELECTIVE
    address_space: int = 256

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ConfigurationError(f"ASN must be positive, got {self.asn}")
        if self.address_space < 0:
            raise ConfigurationError("address space cannot be negative")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"AS{self.asn} ({self.name})"

    def __hash__(self) -> int:
        return hash(self.asn)
