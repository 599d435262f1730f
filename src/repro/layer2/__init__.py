"""Layer-2 substrate: remote-peering providers, failover, the switch crossing.

Remote peering is a layer-2 service (Section 2.3): the provider carries
Ethernet frames between the member's distant router and the IXP switching
fabric.  This package models exactly the part of the world that layer-3
topologies cannot see.
"""

from repro.layer2.fabric import SWITCH_CROSSING_MS
from repro.layer2.provider import RemotePeeringProvider

__all__ = [
    "SWITCH_CROSSING_MS",
    "RemotePeeringProvider",
]
