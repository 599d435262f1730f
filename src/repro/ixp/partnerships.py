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
    """A layer-2 interconnection between two IXPs."""

    ixp_a: str
    ixp_b: str
    city_a: City
    city_b: City

    def __post_init__(self) -> None:
        if self.ixp_a == self.ixp_b:
            raise ConfigurationError("partnership needs two distinct IXPs")
