"""The IXP object: peering LAN, address plan, members."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.asys import AutonomousSystem
from repro.delaymodel.congestion import CongestionProcess, NoCongestion
from repro.errors import ConfigurationError
from repro.geo.cities import City
from repro.layer2.fabric import PeeringFabric
from repro.layer2.port import Port, PortProfile
from repro.layer2.pseudowire import Pseudowire
from repro.net.addr import HostAllocator, IPv4Address, IPv4Prefix
from repro.net.device import Device
from repro.types import ASN, PortKind


@dataclass(slots=True)
class MemberInterface:
    """One member interface on the peering LAN (the detector's probe unit)."""

    address: IPv4Address
    device: Device
    port: Port
    member: "IXPMember"

    @property
    def is_remote(self) -> bool:
        """Ground truth: whether this interface peers remotely."""
        return self.port.is_remote

    @property
    def asn(self) -> ASN:
        """ASN of the owning network (ground truth, not the registry view)."""
        return self.member.network.asn


@dataclass(slots=True)
class IXPMember:
    """A network's membership at one IXP."""

    network: AutonomousSystem
    ixp: "IXP"
    interfaces: list[MemberInterface] = field(default_factory=list)

    @property
    def is_remote(self) -> bool:
        """Whether *all* of the member's interfaces are remote ports."""
        return bool(self.interfaces) and all(
            i.is_remote for i in self.interfaces
        )


@dataclass
class IXP:
    """An Internet eXchange Point."""

    acronym: str
    full_name: str
    city: City
    country: str
    lan: IPv4Prefix
    peak_traffic_tbps: float | None = None
    fabric: PeeringFabric = None  # type: ignore[assignment]
    members: list[IXPMember] = field(default_factory=list)
    _member_by_asn: dict[ASN, IXPMember] = field(default_factory=dict)
    _host_alloc: HostAllocator = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.fabric is None:
            self.fabric = PeeringFabric(name=self.acronym)
        if self._host_alloc is None:
            self._host_alloc = HostAllocator(self.lan)

    # --- membership -----------------------------------------------------------

    def register(self, network: AutonomousSystem) -> IXPMember:
        """Create (or return the existing) membership for ``network``."""
        existing = self._member_by_asn.get(network.asn)
        if existing is not None:
            return existing
        member = IXPMember(network=network, ixp=self)
        self.members.append(member)
        self._member_by_asn[network.asn] = member
        return member

    # --- interfaces ---------------------------------------------------------------

    def allocate_address(self) -> IPv4Address:
        """Hand out the next free peering-LAN address."""
        return self._host_alloc.allocate()

    def add_interface(
        self,
        member: IXPMember,
        device: Device,
        kind: PortKind,
        tail_rtt_ms: float | None = None,
        pseudowire: Pseudowire | None = None,
        congestion: CongestionProcess | None = None,
        site: str = "main",
        address: IPv4Address | None = None,
    ) -> MemberInterface:
        """Attach one interface of ``member`` to the peering LAN.

        Direct interfaces need ``tail_rtt_ms`` (the metro cross-connect
        RTT); remote interfaces need a ``pseudowire`` whose base RTT becomes
        the tail.
        """
        if member.ixp is not self:
            raise ConfigurationError("member belongs to a different IXP")
        if kind is PortKind.REMOTE:
            if pseudowire is None:
                raise ConfigurationError("remote interface requires a pseudowire")
            tail = pseudowire.base_rtt_ms()
        else:
            if tail_rtt_ms is None:
                raise ConfigurationError("direct interface requires tail_rtt_ms")
            tail = tail_rtt_ms
        if address is None:
            address = self.allocate_address()
        iface = device.add_interface(address)
        profile = PortProfile(
            tail_rtt_ms=tail,
            congestion=congestion if congestion is not None else NoCongestion(),
        )
        port = Port(
            interface=iface,
            kind=kind,
            profile=profile,
            pseudowire=pseudowire,
        )
        self.fabric.attach(port, site=site)
        member_iface = MemberInterface(
            address=address, device=device, port=port, member=member
        )
        member.interfaces.append(member_iface)
        return member_iface

    def interfaces(self) -> list[MemberInterface]:
        """Every member interface on the LAN, in attachment order."""
        return [i for m in self.members for i in m.interfaces]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.acronym
