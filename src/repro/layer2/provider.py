"""Remote-peering providers: the layer-2 middlemen the paper studies."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.cities import City
from repro.geo.latency import LatencyModel


@dataclass(slots=True)
class RemotePeeringProvider:
    """A company selling layer-2 reach into IXPs (IX Reach / Atrato style).

    The provider keeps equipment at the IXPs it serves and sells
    pseudowires from customer cities into those IXPs.  ``overhead_ms`` is
    the provider-specific round-trip switching overhead inherited by every
    circuit it sells; a circuit's RTT is ``latency_model``'s fiber RTT
    over its length plus that overhead.
    """

    name: str
    served_ixp_cities: set[str] = field(default_factory=set)
    overhead_ms: float = 0.5
    latency_model: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self) -> None:
        if self.overhead_ms < 0:
            raise ConfigurationError("provider overhead cannot be negative")

    def serves(self, ixp_city: City) -> bool:
        """Whether the provider has a presence at ``ixp_city``."""
        return ixp_city.name in self.served_ixp_cities

    def add_presence(self, ixp_city: City) -> None:
        """Install provider equipment at an IXP city."""
        self.served_ixp_cities.add(ixp_city.name)
