"""The seed implementation's object model of an IXP peering LAN.

Devices and their interfaces, the ICMP echo semantics of one probe,
pseudowires, ports, the switched fabric, the IXP with its members and
address plan, a provider that provisions circuits, and the looking-glass
servers that probe the fabric one ping at a time.  The product describes
the same world as one interface table (:mod:`repro.sim.detection_world`)
and probes it with the array engine (:mod:`repro.lg.batch`); these
classes are the oracle those are held to: :mod:`tests.reference.views`
realizes a product world into them, :mod:`tests.reference.campaign`
probes them, and :mod:`tests.reference.detection_world` builds them
directly.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.delaymodel.congestion import CongestionProcess, NoCongestion
from repro.delaymodel.jitter import JitterModel
from repro.errors import AddressError, ConfigurationError, TopologyError
from repro.geo.cities import City
from repro.geo.latency import LatencyModel
from repro.layer2.failover import FailoverState
from repro.layer2.fabric import SWITCH_CROSSING_MS
from repro.layer2.provider import RemotePeeringProvider
from repro.lg.server import LG_TAIL_RTT_MS, LGVantage
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.device import TTL_LINUX, TTL_NETWORK_OS, VALID_TTLS
from repro.net.icmp import EchoReply
from repro.types import ASN

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import ProbeFaults


class PortKind(enum.Enum):
    """How a member's port attaches to an IXP peering LAN."""

    DIRECT = "direct"
    REMOTE = "remote"


class HostAllocator:
    """Hands out consecutive host addresses inside one prefix."""

    def __init__(self, prefix: IPv4Prefix) -> None:
        self._prefix = prefix
        self._next_index = 1

    def allocate(self) -> IPv4Address:
        """Return the next free host address (1-based within the subnet)."""
        index = self._next_index
        if index > self._prefix.usable_hosts():
            raise AddressError(
                f"host index {index} out of range for {self._prefix}"
            )
        self._next_index += 1
        return IPv4Address(self._prefix.network.value + index)


# ---------------------------------------------------------------------------
# devices and ICMP
# ---------------------------------------------------------------------------

_device_ids = itertools.count(1)


@dataclass(slots=True)
class Interface:
    """One IP interface of a device."""

    address: IPv4Address
    device: "Device"
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.device.name}:{self.address}"


@dataclass(slots=True)
class Device:
    """A member router with ICMP-answering behaviour.

    ``ttl_init`` is stamped on replies until ``os_change_time``, then
    ``ttl_after_change`` (None: no OS change).  ``respond_probability``
    is the per-probe chance of answering, ``processing_ms`` the mean
    slow-path time added to every reply, and ``reply_extra_hops`` the IP
    hops a reply crosses outside the layer-2 subnet.
    """

    name: str
    ttl_init: int = TTL_NETWORK_OS
    ttl_after_change: int | None = None
    os_change_time: float | None = None
    respond_probability: float = 1.0
    processing_ms: float = 0.1
    reply_extra_hops: int = 0
    interfaces: list[Interface] = field(default_factory=list)
    device_id: int = field(default_factory=lambda: next(_device_ids))

    def __post_init__(self) -> None:
        if self.ttl_init not in VALID_TTLS:
            raise ConfigurationError(f"unrealistic initial TTL {self.ttl_init}")
        if self.ttl_after_change is not None:
            if self.ttl_after_change not in VALID_TTLS:
                raise ConfigurationError(
                    f"unrealistic post-change TTL {self.ttl_after_change}"
                )
            if self.os_change_time is None:
                raise ConfigurationError(
                    "ttl_after_change given without os_change_time"
                )
        if not 0.0 <= self.respond_probability <= 1.0:
            raise ConfigurationError("respond_probability must be in [0, 1]")
        if self.processing_ms < 0:
            raise ConfigurationError("processing_ms cannot be negative")
        if self.reply_extra_hops < 0:
            raise ConfigurationError("reply_extra_hops cannot be negative")

    def add_interface(self, address: IPv4Address, name: str = "") -> Interface:
        """Attach a new interface with ``address`` and return it."""
        iface = Interface(address=address, device=self, name=name)
        self.interfaces.append(iface)
        return iface

    def ttl_init_at(self, time_s: float) -> int:
        """Initial TTL the device stamps on a reply sent at ``time_s``."""
        changed = (
            self.ttl_after_change is not None
            and self.os_change_time is not None
            and time_s >= self.os_change_time
        )
        if changed:
            assert self.ttl_after_change is not None
            return self.ttl_after_change
        return self.ttl_init


@dataclass(frozen=True, slots=True)
class PingObservation:
    """The outcome of one echo request: a reply or a timeout."""

    reply: EchoReply | None


def reply_for_probe(
    device: Device,
    target_address: str,
    path_rtt_ms: float,
    sent_at_s: float,
    rng: np.random.Generator,
    reply_extra_hops: int | None = None,
    respond_probability: float | None = None,
) -> PingObservation:
    """Simulate one echo request against ``device``.

    Draw order: the loss draw, then (for a reply whose TTL survives the
    extra hops) the exponential processing draw when the device has a
    processing mean.  ``reply_extra_hops`` and ``respond_probability``
    override the device's own; the loss draw is consumed either way.
    """
    p = device.respond_probability if respond_probability is None else respond_probability
    if rng.random() > p:
        return PingObservation(reply=None)
    hops = device.reply_extra_hops if reply_extra_hops is None else reply_extra_hops
    ttl = device.ttl_init_at(sent_at_s) - hops
    if ttl <= 0:
        # Reply died in transit; observable only as a timeout.
        return PingObservation(reply=None)
    processing = float(rng.exponential(device.processing_ms)) if device.processing_ms else 0.0
    rtt = path_rtt_ms + processing
    reply = EchoReply(
        rtt_ms=rtt,
        ttl=ttl,
        target_address=target_address,
        sent_at_s=sent_at_s,
    )
    return PingObservation(reply=reply)


# ---------------------------------------------------------------------------
# layer 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Pseudowire:
    """A layer-2 circuit between a remote customer site and an IXP site."""

    customer_city: City
    ixp_city: City
    overhead_ms: float = 0.5
    latency_model: LatencyModel = LatencyModel()

    def __post_init__(self) -> None:
        if self.overhead_ms < 0:
            raise ConfigurationError("pseudowire overhead cannot be negative")

    def distance_km(self) -> float:
        """Great-circle length of the circuit."""
        return self.customer_city.distance_km(self.ixp_city)

    def base_rtt_ms(self) -> float:
        """Round-trip delay contributed by the circuit, excluding jitter."""
        return (
            self.latency_model.baseline_rtt_ms(self.distance_km())
            + self.overhead_ms
        )


@dataclass(slots=True)
class CircuitProvider(RemotePeeringProvider):
    """A remote-peering provider that keeps the circuits it sold."""

    circuits: list[Pseudowire] = field(default_factory=list)

    def provision(self, customer_city: City, ixp_city: City) -> Pseudowire:
        """Sell a circuit from ``customer_city`` into the IXP at ``ixp_city``."""
        if not self.serves(ixp_city):
            raise ConfigurationError(
                f"{self.name} has no presence at {ixp_city.name}"
            )
        wire = Pseudowire(
            customer_city=customer_city,
            ixp_city=ixp_city,
            overhead_ms=self.overhead_ms,
            latency_model=self.latency_model,
        )
        self.circuits.append(wire)
        return wire


_port_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class PortProfile:
    """Delay characteristics of one port's tail circuit."""

    tail_rtt_ms: float
    congestion: CongestionProcess = field(default_factory=NoCongestion)

    def __post_init__(self) -> None:
        if self.tail_rtt_ms < 0:
            raise ConfigurationError("tail RTT cannot be negative")


@dataclass(slots=True)
class Port:
    """A member (or looking-glass) attachment to the peering fabric.

    ``operator_bias`` is a constant RTT one LG operator's flows see (a
    longer LAG/ECMP member circuit).
    """

    interface: Interface
    kind: PortKind
    profile: PortProfile
    pseudowire: Pseudowire | None = None
    operator_bias: dict[str, float] = field(default_factory=dict)
    port_id: int = field(default_factory=lambda: next(_port_ids))

    def __post_init__(self) -> None:
        if self.kind is PortKind.REMOTE and self.pseudowire is None:
            raise ConfigurationError("remote port requires a pseudowire")
        if self.kind is PortKind.DIRECT and self.pseudowire is not None:
            raise ConfigurationError("direct port cannot carry a pseudowire")

    @property
    def is_remote(self) -> bool:
        """Whether the port reaches the fabric over a remote-peering circuit."""
        return self.kind is PortKind.REMOTE


def failover_extra_ms(
    failover: FailoverState, address: IPv4Address, time_s: float
) -> float:
    """Transit-detour RTT penalty for one probe instant (0 when lit)."""
    entry = failover.windows.get(address.value)
    if entry is None:
        return 0.0
    edges, extra = entry
    if np.searchsorted(edges, time_s, side="right") % 2 == 1:
        return extra
    return 0.0


@dataclass(slots=True)
class PeeringFabric:
    """A layer-2 switching fabric with ports indexed by interface address.

    Multi-site IXPs label each port with a site; a probe between ports at
    different sites crosses the declared backhaul.
    """

    name: str
    jitter: JitterModel = field(default_factory=JitterModel)
    switch_crossing_ms: float = SWITCH_CROSSING_MS
    _ports: dict[int, Port] = field(default_factory=dict)
    _site_of_port: dict[int, str] = field(default_factory=dict)
    _intersite_rtt_ms: dict[tuple[str, str], float] = field(default_factory=dict)

    def attach(self, port: Port, site: str = "main") -> None:
        """Attach ``port`` at ``site``; address collisions are topology errors."""
        key = port.interface.address.value
        if key in self._ports:
            raise TopologyError(
                f"{self.name}: address {port.interface.address} already attached"
            )
        self._ports[key] = port
        self._site_of_port[key] = site

    def set_intersite_rtt(self, site_a: str, site_b: str, rtt_ms: float) -> None:
        """Declare the backhaul RTT between two sites of the fabric."""
        if rtt_ms < 0:
            raise ConfigurationError("inter-site RTT cannot be negative")
        self._intersite_rtt_ms[(site_a, site_b)] = rtt_ms
        self._intersite_rtt_ms[(site_b, site_a)] = rtt_ms

    def port_for(self, address: IPv4Address) -> Port:
        """The port whose interface holds ``address``."""
        try:
            return self._ports[address.value]
        except KeyError:
            raise TopologyError(
                f"{self.name}: no port with address {address}"
            ) from None

    def has_address(self, address: IPv4Address) -> bool:
        """Whether any attached port holds ``address``."""
        return address.value in self._ports

    def site_of(self, port: Port) -> str:
        """The site label a port is attached at."""
        try:
            return self._site_of_port[port.interface.address.value]
        except KeyError:
            raise TopologyError(f"{self.name}: port not attached") from None

    def _intersite_component_ms(self, a: Port, b: Port) -> float:
        site_a = self.site_of(a)
        site_b = self.site_of(b)
        if site_a == site_b:
            return 0.0
        try:
            return self._intersite_rtt_ms[(site_a, site_b)]
        except KeyError:
            raise TopologyError(
                f"{self.name}: no backhaul declared between {site_a} and {site_b}"
            ) from None

    def base_path_rtt_ms(self, a: Port, b: Port) -> float:
        """Deterministic path RTT between two ports (no jitter/congestion)."""
        return (
            a.profile.tail_rtt_ms
            + b.profile.tail_rtt_ms
            + self.switch_crossing_ms
            + self._intersite_component_ms(a, b)
        )

    def path_rtt_ms(
        self,
        a: Port,
        b: Port,
        time_s: float,
        rng: np.random.Generator,
        failover: FailoverState | None = None,
    ) -> float:
        """One probe's path RTT: baseline + jitter + both ports' congestion.

        While either endpoint's pseudowire is dark, the transit detour's
        extra RTT is added on top (draw-free).
        """
        rtt = self.base_path_rtt_ms(a, b)
        rtt += self.jitter.sample_ms(rng)
        rtt += a.profile.congestion.delay_ms(time_s, rng)
        rtt += b.profile.congestion.delay_ms(time_s, rng)
        if failover is not None and failover:
            rtt += failover_extra_ms(failover, a.interface.address, time_s)
            rtt += failover_extra_ms(failover, b.interface.address, time_s)
        return rtt


# ---------------------------------------------------------------------------
# the IXP
# ---------------------------------------------------------------------------


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
    """An Internet eXchange Point: peering LAN, address plan, members."""

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

    def register(self, network: AutonomousSystem) -> IXPMember:
        """Create (or return the existing) membership for ``network``."""
        existing = self._member_by_asn.get(network.asn)
        if existing is not None:
            return existing
        member = IXPMember(network=network, ixp=self)
        self.members.append(member)
        self._member_by_asn[network.asn] = member
        return member

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

        Direct interfaces need ``tail_rtt_ms``; remote interfaces need a
        ``pseudowire`` whose base RTT becomes the tail.
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


# ---------------------------------------------------------------------------
# looking glasses
# ---------------------------------------------------------------------------


def _in_windows(edges: np.ndarray, time_s: float) -> bool:
    """Whether ``time_s`` falls inside a merged window set (see faults)."""
    if edges.size == 0:
        return False
    return bool(np.searchsorted(edges, time_s, side="right") % 2 == 1)


@dataclass(slots=True)
class OffLanTarget:
    """A published address that is *not* on the peering LAN.

    Probes still get answers, but the reply crosses ``extra_hops`` IP
    hops and the RTT is the off-LAN detour's.
    """

    device: Device
    base_rtt_ms: float
    extra_hops: int = 1

    def __post_init__(self) -> None:
        if self.base_rtt_ms < 0:
            raise ConfigurationError("base RTT cannot be negative")
        if self.extra_hops < 1:
            raise ConfigurationError("an off-LAN target needs >= 1 extra hop")


@dataclass(slots=True)
class LookingGlassServer:
    """One LG server: a vantage point with a port on the peering fabric."""

    name: str
    operator: str  # "PCH" or "RIPE"
    ixp_acronym: str
    fabric: PeeringFabric
    port: Port
    pings_per_query: int
    offlan_targets: dict[int, OffLanTarget] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.operator not in ("PCH", "RIPE"):
            raise ConfigurationError(f"unknown LG operator {self.operator!r}")
        if self.pings_per_query <= 0:
            raise ConfigurationError("pings_per_query must be positive")

    @classmethod
    def create(
        cls,
        operator: str,
        ixp_acronym: str,
        fabric: PeeringFabric,
        address: IPv4Address,
        site: str = "main",
        tail_rtt_ms: float = LG_TAIL_RTT_MS,
    ) -> "LookingGlassServer":
        """Build an LG server and attach its own port to ``fabric``."""
        device = Device(
            name=f"lg-{operator.lower()}-{ixp_acronym}", ttl_init=TTL_LINUX
        )
        iface = device.add_interface(address)
        port = Port(
            interface=iface,
            kind=PortKind.DIRECT,
            profile=PortProfile(tail_rtt_ms=tail_rtt_ms),
        )
        fabric.attach(port, site=site)
        vantage = LGVantage.at(operator, ixp_acronym)
        return cls(
            name=vantage.name,
            operator=operator,
            ixp_acronym=ixp_acronym,
            fabric=fabric,
            port=port,
            pings_per_query=vantage.pings_per_query,
        )

    def register_offlan_target(
        self, address: IPv4Address, target: OffLanTarget
    ) -> None:
        """Declare that probes to ``address`` leave the LAN (stale entry)."""
        self.offlan_targets[address.value] = target

    def query(
        self,
        target: IPv4Address,
        time_s: float,
        rng: np.random.Generator,
        faults: "ProbeFaults | None" = None,
    ) -> list[EchoReply]:
        """Answer one HTML query: issue the operator's ping burst.

        Returns the replies that came back (possibly empty).  Probes are
        spaced one second apart.  An optional fault slice makes probes
        see the scheduled chaos: flapped ports time out, loss bursts
        degrade response probability, and dark pseudowires answer over
        the transit detour.
        """
        replies: list[EchoReply] = []
        for i in range(self.pings_per_query):
            sent_at = time_s + float(i)
            observation = self._probe_once(target, sent_at, rng, faults)
            if observation is not None:
                replies.append(observation)
        return replies

    def _probe_once(
        self,
        target: IPv4Address,
        sent_at: float,
        rng: np.random.Generator,
        faults: "ProbeFaults | None" = None,
    ) -> EchoReply | None:
        respond_override: float | None = None
        if faults is not None:
            flap_edges = faults.flap_edges.get(target.value)
            if flap_edges is not None and _in_windows(flap_edges, sent_at):
                return None  # port is hard-down: the probe times out
            if faults.loss_severity > 0 and _in_windows(
                faults.loss_edges, sent_at
            ):
                base = self._respond_probability_for(target)
                respond_override = base * (1.0 - faults.loss_severity)
        if self.fabric.has_address(target):
            port = self.fabric.port_for(target)
            path_rtt = self.fabric.path_rtt_ms(
                self.port, port, sent_at, rng,
                failover=faults.failover if faults is not None else None,
            )
            path_rtt += port.operator_bias.get(self.operator, 0.0)
            obs = reply_for_probe(
                device=port.interface.device,
                target_address=str(target),
                path_rtt_ms=path_rtt,
                sent_at_s=sent_at,
                rng=rng,
                respond_probability=respond_override,
            )
            return obs.reply
        offlan = self.offlan_targets.get(target.value)
        if offlan is None:
            return None  # address unreachable: probe times out
        # The probe exits the LAN via a router; add jitter for the detour.
        path_rtt = offlan.base_rtt_ms + self.fabric.jitter.sample_ms(rng)
        obs = reply_for_probe(
            device=offlan.device,
            target_address=str(target),
            path_rtt_ms=path_rtt,
            sent_at_s=sent_at,
            rng=rng,
            reply_extra_hops=offlan.extra_hops,
            respond_probability=respond_override,
        )
        return obs.reply

    def _respond_probability_for(self, target: IPv4Address) -> float:
        """The target device's baseline response probability."""
        if self.fabric.has_address(target):
            return self.fabric.port_for(target).interface.device.respond_probability
        offlan = self.offlan_targets.get(target.value)
        if offlan is None:
            return 0.0
        return offlan.device.respond_probability
