"""Customer cones: the reach a peering relationship buys you.

Peering traffic is "commonly limited to the traffic belonging to the
peering networks and their customer cones, i.e., their direct and indirect
transit customers" (Section 2.2).  Everything in the offload study hangs
off this set; this breadth-first walk of the object graph is the oracle
of the product's member-cone CSRs.
"""

from __future__ import annotations

from collections import deque

from repro.types import ASN
from tests.reference.relationships import ASGraph


def customer_cone(graph: ASGraph, asn: ASN) -> set[ASN]:
    """The customer cone of ``asn``: itself plus all transitive customers."""
    cone: set[ASN] = {asn}
    queue: deque[ASN] = deque([asn])
    while queue:
        node = queue.popleft()
        for customer in graph.customers_of(node):
            if customer not in cone:
                cone.add(customer)
                queue.append(customer)
    return cone

