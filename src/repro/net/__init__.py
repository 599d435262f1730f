"""Layer-3 primitives: IPv4 addressing, initial TTLs, ICMP echo replies.

These primitives exist to reproduce the observables the paper's detector
consumes: the round-trip time and the TTL of ping replies sent by member
routers on an IXP peering LAN.
"""

from repro.net.addr import IPv4Address, IPv4Prefix, SubnetAllocator
from repro.net.device import TTL_LINUX, TTL_NETWORK_OS, TTL_RARE
from repro.net.icmp import EchoReply, ReplyBatch

__all__ = [
    "IPv4Address",
    "IPv4Prefix",
    "SubnetAllocator",
    "TTL_LINUX",
    "TTL_NETWORK_OS",
    "TTL_RARE",
    "EchoReply",
    "ReplyBatch",
]
