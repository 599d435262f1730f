"""The switched peering LAN of an IXP (possibly spanning several sites)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.delaymodel.jitter import JitterModel
from repro.errors import ConfigurationError, TopologyError
from repro.layer2.port import Port
from repro.net.addr import IPv4Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.layer2.failover import FailoverState

#: RTT of one crossing of the IXP switch (both directions).
SWITCH_CROSSING_MS = 0.02


@dataclass(slots=True)
class PeeringFabric:
    """A layer-2 switching fabric with ports indexed by interface address.

    Multi-site IXPs (Section 3.1, "IXPs with multiple locations") are
    modeled by per-port site labels and an inter-site delay matrix: a probe
    between ports at different sites crosses the IXP's own backhaul.
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
        failover: "FailoverState | None" = None,
    ) -> float:
        """One probe's path RTT: baseline + jitter + both ports' congestion.

        When a :class:`~repro.layer2.failover.FailoverState` is given and
        either endpoint's pseudowire is dark at ``time_s``, the transit
        detour's extra RTT is added on top (deterministic, draw-free —
        the stochastic components consume exactly the same draws either
        way).
        """
        rtt = self.base_path_rtt_ms(a, b)
        rtt += self.jitter.sample_ms(rng)
        rtt += a.profile.congestion.delay_ms(time_s, rng)
        rtt += b.profile.congestion.delay_ms(time_s, rng)
        if failover is not None and failover:
            rtt += failover.extra_ms(a.interface.address, time_s)
            rtt += failover.extra_ms(b.interface.address, time_s)
        return rtt
