"""Economic entities: the nodes of a layer-2-aware Internet model.

Layer-3 models know only ASes.  The paper calls for models that also
represent the layer-2 organizations — IXPs and remote-peering providers —
because they are economic intermediaries on real paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class EntityKind(enum.Enum):
    """What kind of organization an entity is."""

    NETWORK = "network"              # an AS (layer-3 visible)
    IXP = "ixp"                      # layer-2 switching organization
    L2_PROVIDER = "l2-provider"      # remote-peering provider

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class EconomicEntity:
    """One organization in the economic structure."""

    key: str            # unique: "as64600", "ixp:AMS-IX", "l2:reachix"
    kind: EntityKind
    name: str

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigurationError("entity key cannot be empty")

    @property
    def layer3_visible(self) -> bool:
        """Whether layer-3 measurements can see this organization."""
        return self.kind is EntityKind.NETWORK


def network_entity(asn: int, name: str) -> EconomicEntity:
    """Entity for an AS."""
    return EconomicEntity(key=f"as{asn}", kind=EntityKind.NETWORK, name=name)


def ixp_entity(acronym: str) -> EconomicEntity:
    """Entity for an IXP organization."""
    return EconomicEntity(
        key=f"ixp:{acronym}", kind=EntityKind.IXP, name=acronym
    )


def provider_entity(name: str) -> EconomicEntity:
    """Entity for a remote-peering (layer-2) provider."""
    return EconomicEntity(
        key=f"l2:{name}", kind=EntityKind.L2_PROVIDER, name=name
    )


@dataclass(frozen=True, slots=True)
class EntityPath:
    """An end-to-end path through economic entities.

    ``entities`` runs from the source network to the destination network;
    intermediaries are everything in between.  The same physical path has
    two representations: the layer-3 one (networks only) and the
    layer-2-aware one (IXPs and providers included).
    """

    entities: tuple[EconomicEntity, ...]

    def __post_init__(self) -> None:
        if len(self.entities) < 2:
            raise ConfigurationError("a path needs two endpoints")
        for endpoint in (self.entities[0], self.entities[-1]):
            if endpoint.kind is not EntityKind.NETWORK:
                raise ConfigurationError("path endpoints must be networks")

    def intermediaries(self) -> tuple[EconomicEntity, ...]:
        """Organizations strictly between the endpoints."""
        return self.entities[1:-1]

    def intermediary_count(self) -> int:
        """The paper's flattening metric: middlemen on the path."""
        return len(self.intermediaries())

    def invisible_intermediaries(self) -> tuple[EconomicEntity, ...]:
        """Middlemen that layer-3 models miss (IXPs, L2 providers)."""
        return tuple(e for e in self.intermediaries() if not e.layer3_visible)
