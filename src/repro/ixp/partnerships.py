"""IXP partnership programs and inter-IXP layer-2 interconnections.

Section 2.3/3.1: IXPs incentivise remote peering through partner programs,
and pairs of IXPs (AMS-IX ⇄ AMS-IX Hong Kong, TOP-IX ⇄ VSIX/LyonIX) buy
layer-2 connectivity from a third party to merge peering opportunities.
The paper's method classifies members reached over such interconnects as
remote peers — which it considers correct behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.cities import City


@dataclass(frozen=True, slots=True)
class Partnership:
    """A layer-2 interconnection between two IXPs.

    ``membership_discount`` models partner programs that reduce fees for
    remotely peering networks (an input to the economics model's ``h``).
    """

    ixp_a: str
    ixp_b: str
    city_a: City
    city_b: City
    carrier: str
    membership_discount: float = 0.25
    overhead_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.ixp_a == self.ixp_b:
            raise ConfigurationError("partnership needs two distinct IXPs")
        if not 0.0 <= self.membership_discount < 1.0:
            raise ConfigurationError("discount must be in [0, 1)")
        if self.overhead_ms < 0:
            raise ConfigurationError("overhead cannot be negative")

