"""Looking-glass servers attached to IXP peering LANs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.layer2.fabric import PeeringFabric
from repro.layer2.port import Port, PortProfile
from repro.net.addr import IPv4Address
from repro.net.device import Device, TTL_LINUX
from repro.net.icmp import EchoReply, reply_for_probe
from repro.types import PortKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import ProbeFaults

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


def _in_windows(edges: np.ndarray, time_s: float) -> bool:
    """Whether ``time_s`` falls inside a merged window set (see faults)."""
    if edges.size == 0:
        return False
    return bool(np.searchsorted(edges, time_s, side="right") % 2 == 1)


@dataclass(slots=True)
class OffLanTarget:
    """A published address that is *not* on the peering LAN.

    Stale registry entries resolve to a device somewhere behind a router:
    probes still get answers, but the reply crosses ``extra_hops`` IP hops
    (so its TTL arrives decremented — the TTL-match filter's signature)
    and the RTT includes the off-LAN detour.
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
        spaced one second apart, as LG ping implementations do.  An
        optional :class:`~repro.faults.schedule.ProbeFaults` slice makes
        probes see the scheduled chaos: flapped ports time out, loss
        bursts degrade response probability, and dark pseudowires answer
        over the transit detour.
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
