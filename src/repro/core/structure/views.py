"""Layer-3 and layer-2-aware views of a measured interconnection world.

The inventory extracts, from a detection world, who attaches where and how
(direct port or remote-peering circuit), who everyone buys transit from,
and which layer-2 providers are owned by which transit carriers — the
facts Section 6's reliability/accountability discussion turns on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.structure.entities import (
    EconomicEntity,
    EntityPath,
    ixp_entity,
    network_entity,
    provider_entity,
)
from repro.errors import ConfigurationError
from repro.rand import derive_seed
from repro.sim.detection_world import ATTACH_REMOTE, ATTACH_STALE, DetectionWorld
from repro.types import ASN

#: Synthetic transit carriers networks buy from (the inventory's upstream
#: world).  Some of them also run a remote-peering business — the paper's
#: "traditional transit providers that leverage their traffic-delivery
#: expertise to act as remote-peering intermediaries".
_CARRIERS = (
    "carrier-0", "carrier-1", "carrier-2", "carrier-3", "carrier-4",
    "carrier-5",
)

#: Remote-peering provider -> owning transit carrier (None = independent,
#: the IX-Reach/Atrato-style pure plays).
_PROVIDER_OWNERS: dict[str, str | None] = {
    "reachix": None,
    "atrato-like": None,
    "l2carrier": "carrier-2",
    "metrowave": "carrier-0",
}


@dataclass(frozen=True, slots=True)
class Attachment:
    """One (network, IXP) membership with its physical modality."""

    asn: ASN
    network_name: str
    ixp_acronym: str
    remote: bool
    provider_name: str | None  # set iff remote

    def __post_init__(self) -> None:
        if self.remote and self.provider_name is None:
            raise ConfigurationError("remote attachment needs a provider")


@dataclass
class InterconnectionInventory:
    """Everything both structural views are built from."""

    attachments: list[Attachment]
    transit_of: dict[ASN, tuple[str, ...]]
    provider_owner: dict[str, str | None]
    network_names: dict[ASN, str]
    _by_ixp: dict[str, list[Attachment]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_ixp:
            for attachment in self.attachments:
                self._by_ixp.setdefault(attachment.ixp_acronym, []).append(
                    attachment
                )

    def ixps(self) -> list[str]:
        """IXPs with at least one attachment, sorted."""
        return sorted(self._by_ixp)

    def members_at(self, ixp_acronym: str) -> list[Attachment]:
        """Attachments at one IXP."""
        return list(self._by_ixp.get(ixp_acronym, []))

    def remote_attachments(self) -> list[Attachment]:
        """All remote-peering attachments."""
        return [a for a in self.attachments if a.remote]

    def peering_pairs_at(self, ixp_acronym: str) -> int:
        """Potential peering relationships an IXP enables: member pairs."""
        n = len(self._by_ixp.get(ixp_acronym, []))
        return n * (n - 1) // 2


def build_inventory(world: DetectionWorld, seed: int = 0) -> InterconnectionInventory:
    """Extract the inventory from a detection world's interface table.

    IXPs come by acronym.  Within an IXP a member (one ASN) enters at
    its first row, stale rows included, and each of its non-stale rows
    follows in row order as one attachment: remote iff the row's
    attachment is remote, through the provider its ``provider`` column
    names.  A stale row registers its member but attaches nothing.
    ``network_names`` and ``transit_of`` fill in the same member order.

    Transit assignments are synthesized deterministically (the detection
    world models IXP LANs, not the transit mesh): every network buys from
    one or two of the six carriers, chosen by seeded hash.
    """
    t = world.table
    asns = t.asn.tolist()
    attachment = t.attachment.tolist()
    anchor = t.anchor.tolist()
    pool_index = t.pool_index.tolist()
    provider = t.provider.tolist()
    attachments: list[Attachment] = []
    names: dict[ASN, str] = {}
    transit: dict[ASN, tuple[str, ...]] = {}
    for entry in sorted(world.exchanges, key=lambda e: e.acronym):
        members: dict[int, tuple[str, list[int]]] = {}
        for r in range(entry.start, entry.stop):
            if asns[r] not in members:
                network = (
                    world.anchors[anchor[r]] if anchor[r] >= 0
                    else world.pool.network(pool_index[r]).asys
                )
                members[asns[r]] = (network.name, [])
            if attachment[r] != ATTACH_STALE:
                members[asns[r]][1].append(r)
        for asn, (name, rows) in members.items():
            names[asn] = name
            if asn not in transit:
                transit[asn] = _assign_carriers(asn, seed)
            for r in rows:
                remote = attachment[r] == ATTACH_REMOTE
                attachments.append(Attachment(
                    asn=asn,
                    network_name=name,
                    ixp_acronym=entry.acronym,
                    remote=remote,
                    provider_name=(
                        world.providers[provider[r]].name if remote else None
                    ),
                ))
    return InterconnectionInventory(
        attachments=attachments,
        transit_of=transit,
        provider_owner=dict(_PROVIDER_OWNERS),
        network_names=names,
    )


def _assign_carriers(asn: ASN, seed: int) -> tuple[str, ...]:
    first = _CARRIERS[derive_seed(seed, "carrier-a", asn) % len(_CARRIERS)]
    if derive_seed(seed, "multi", asn) % 100 < 45:  # ~45% multihomed
        second = _CARRIERS[
            derive_seed(seed, "carrier-b", asn) % len(_CARRIERS)
        ]
        if second != first:
            return (first, second)
    return (first,)


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------


class Layer3View:
    """The traditional AS-only topology: what BGP/traceroute can infer."""

    def __init__(self, inventory: InterconnectionInventory) -> None:
        self.inventory = inventory

    def peering_path(self, a: Attachment, b: Attachment) -> EntityPath:
        """A peering path as layer 3 sees it: the two ASes, nothing else."""
        return EntityPath(entities=(
            network_entity(a.asn, a.network_name),
            network_entity(b.asn, b.network_name),
        ))

    def transit_path(self, a: Attachment, b: Attachment) -> EntityPath:
        """A transit path: visible because carriers are ASes."""
        return _transit_path(self.inventory, a, b)


class Layer2AwareView:
    """The refined model: IXPs and L2 providers appear as organizations."""

    def __init__(self, inventory: InterconnectionInventory) -> None:
        self.inventory = inventory

    def peering_path(self, a: Attachment, b: Attachment) -> EntityPath:
        """The same peering path with the layer-2 middlemen shown."""
        if a.ixp_acronym != b.ixp_acronym:
            raise ConfigurationError("peering requires a shared IXP")
        entities: list[EconomicEntity] = [
            network_entity(a.asn, a.network_name)
        ]
        if a.remote:
            assert a.provider_name is not None
            entities.append(provider_entity(a.provider_name))
        entities.append(ixp_entity(a.ixp_acronym))
        if b.remote:
            assert b.provider_name is not None
            entities.append(provider_entity(b.provider_name))
        entities.append(network_entity(b.asn, b.network_name))
        return EntityPath(entities=tuple(entities))

    def transit_path(self, a: Attachment, b: Attachment) -> EntityPath:
        """Transit paths look the same in both views (carriers are ASes)."""
        return _transit_path(self.inventory, a, b)


def _transit_path(
    inventory: InterconnectionInventory, a: Attachment, b: Attachment
) -> EntityPath:
    carrier_a = inventory.transit_of[a.asn][0]
    carrier_b = inventory.transit_of[b.asn][0]
    entities: list[EconomicEntity] = [network_entity(a.asn, a.network_name)]
    entities.append(network_entity(_carrier_asn(carrier_a), carrier_a))
    if carrier_b != carrier_a:
        entities.append(network_entity(_carrier_asn(carrier_b), carrier_b))
    entities.append(network_entity(b.asn, b.network_name))
    return EntityPath(entities=tuple(entities))


def _carrier_asn(carrier: str) -> int:
    """Stable synthetic ASNs for the carrier organizations."""
    return 7_000 + _CARRIERS.index(carrier)
