"""BGP substrate: AS-level topology, policy routing, customer cones.

The offload study (Section 4) needs three things from BGP: AS paths for
every flow crossing the studied network's border routers, customer cones of
candidate peers, and the relationship labels (customer / provider / peer)
that decide which traffic is offloadable.  This package provides all three
— an exact Gao–Rexford propagation engine for arbitrary graphs, plus
cone computation.
"""

from repro.bgp.asys import AutonomousSystem
from repro.bgp.relationships import ASGraph, Relationship
from repro.bgp.cone import customer_cone
from repro.bgp.routing import ASPath, RouteComputation, RouteKind

__all__ = [
    "AutonomousSystem",
    "ASGraph",
    "Relationship",
    "customer_cone",
    "ASPath",
    "RouteComputation",
    "RouteKind",
]
