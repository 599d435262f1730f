"""Policy routing under the Gao–Rexford model.

For one destination AS, :class:`RouteComputation` computes every other AS's
best route following standard economic policy:

* **Preference** at each AS: routes via customers beat routes via peers beat
  routes via providers; ties broken by shortest AS path, then lowest
  next-hop ASN (a deterministic stand-in for tie-breaks BGP resolves with
  router IDs).
* **Export**: routes learned from customers are exported to everyone;
  routes learned from peers or providers are exported only to customers.

These two rules imply every used path is valley-free: an uphill
(customer→provider) segment, at most one peer edge, then a downhill
(provider→customer) segment.  The implementation exploits that shape with
three linear passes instead of simulating per-message BGP churn, so it is
exact yet O(E log V) per destination.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.bgp.relationships import ASGraph
from repro.errors import RoutingError
from repro.types import ASN


class RouteKind(enum.Enum):
    """How the route was learned, which decides its preference class."""

    ORIGIN = "origin"      # the destination itself
    CUSTOMER = "customer"  # learned from a customer
    PEER = "peer"          # learned from a settlement-free peer
    PROVIDER = "provider"  # learned from a provider

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class ASPath:
    """A loop-free AS-level path from a source to a destination."""

    asns: tuple[ASN, ...]
    kind: RouteKind

    def __post_init__(self) -> None:
        if not self.asns:
            raise RoutingError("empty AS path")
        if len(set(self.asns)) != len(self.asns):
            raise RoutingError(f"AS path contains a loop: {self.asns}")

    @property
    def source(self) -> ASN:
        """First AS on the path."""
        return self.asns[0]

    @property
    def next_hop(self) -> ASN:
        """The neighbour the source forwards to (itself for origin routes)."""
        return self.asns[1] if len(self.asns) > 1 else self.asns[0]

    @property
    def length(self) -> int:
        """Number of AS hops (edges) on the path."""
        return len(self.asns) - 1

    def intermediaries(self) -> tuple[ASN, ...]:
        """ASes strictly between source and destination — the paper's
        "intermediary organizations on Internet paths"."""
        return self.asns[1:-1]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return " ".join(str(a) for a in self.asns)


class RouteComputation:
    """Per-destination best-path computation over an :class:`ASGraph`."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        self._cache: dict[ASN, dict[ASN, ASPath]] = {}

    def best_paths_to(self, destination: ASN) -> dict[ASN, ASPath]:
        """Best path from every AS that can reach ``destination``.

        The returned mapping includes the destination itself (an ORIGIN
        route of length 0).  ASes with no policy-compliant path are absent.
        """
        if destination in self._cache:
            return self._cache[destination]
        self._graph.get(destination)  # raise early on unknown ASN
        paths = self._compute(destination)
        self._cache[destination] = paths
        return paths

    def path(self, source: ASN, destination: ASN) -> ASPath | None:
        """Best path from ``source`` to ``destination``, or None."""
        return self.best_paths_to(destination).get(source)

    # --- internals ------------------------------------------------------------

    def _compute(self, destination: ASN) -> dict[ASN, ASPath]:
        graph = self._graph
        best: dict[ASN, ASPath] = {
            destination: ASPath((destination,), RouteKind.ORIGIN)
        }

        # Pass 1 — customer routes climb provider edges from the destination.
        # An AS's providers learn the route; their providers learn it in turn.
        # Dijkstra with (length, next_hop_asn) cost gives the deterministic
        # shortest + lowest-next-hop tie-break in one sweep.
        frontier: list[tuple[int, ASN, ASN]] = []  # (path_len, via, node)
        for provider in sorted(graph.providers_of(destination)):
            heapq.heappush(frontier, (1, destination, provider))
        customer_routed: dict[ASN, ASPath] = {}
        while frontier:
            length, via, node = heapq.heappop(frontier)
            if node in customer_routed or node == destination:
                continue
            base = best[via] if via == destination else customer_routed[via]
            path = ASPath((node, *base.asns), RouteKind.CUSTOMER)
            customer_routed[node] = path
            for provider in sorted(graph.providers_of(node)):
                if provider not in customer_routed and provider != destination:
                    heapq.heappush(frontier, (length + 1, node, provider))
        best.update(customer_routed)

        # Pass 2 — peer routes: one peer edge off any customer-routed AS
        # (or the destination).  Only ASes without a customer route adopt
        # them; among candidates pick shortest, then lowest next-hop ASN.
        peer_candidates: dict[ASN, ASPath] = {}
        exporters = [destination, *customer_routed.keys()]
        for exporter in exporters:
            base = best[exporter]
            for peer in graph.peers_of(exporter):
                if peer in best or peer in base.asns:
                    continue
                candidate = ASPath((peer, *base.asns), RouteKind.PEER)
                incumbent = peer_candidates.get(peer)
                if incumbent is None or _beats(candidate, incumbent):
                    peer_candidates[peer] = candidate
        best.update(peer_candidates)

        # Pass 3 — provider routes cascade down customer edges from every
        # routed AS.  Any route is exportable to customers, so this is a
        # multi-source shortest-path over provider->customer edges.  All
        # edges weigh 1, so a level-synchronous BFS replaces the heap: a
        # node settles at 1 + the minimum length of its routed providers,
        # via the lowest-ASN provider achieving that minimum whose own path
        # does not already contain the node — exactly the (length, via)
        # pop order of the Dijkstra this replaces, at a fraction of the
        # cost on Internet-scale worlds (no per-node heap churn, no
        # re-sorting of large customer sets, no per-path loop validation —
        # construction is loop-free by the explicit containment guard).
        customer_sets = graph.customer_sets()
        no_customers: frozenset[ASN] = frozenset()
        levels: dict[int, list[ASN]] = {}
        for exporter, path in best.items():
            levels.setdefault(path.length, []).append(exporter)
        while levels:
            length = min(levels)
            exporters = levels.pop(length)
            candidates: dict[ASN, ASN] = {}  # node -> lowest-ASN via
            for via in exporters:
                for node in customer_sets.get(via, no_customers):
                    if node not in best:
                        incumbent = candidates.get(node)
                        if incumbent is None or via < incumbent:
                            candidates[node] = via
            settled_now: list[ASN] = []
            for node, via in candidates.items():
                base = best[via]
                if node in base.asns:
                    # Rare containment miss: fall back to the remaining
                    # vias in ascending-ASN order, as the heap would.
                    fallbacks = sorted(
                        v for v in exporters
                        if v != via and node in customer_sets.get(v, no_customers)
                    )
                    for fallback in fallbacks:
                        base = best[fallback]
                        if node not in base.asns:
                            break
                    else:
                        continue  # unreachable at this length
                best[node] = _unchecked_path(
                    (node, *base.asns), RouteKind.PROVIDER
                )
                settled_now.append(node)
            if settled_now:
                levels.setdefault(length + 1, []).extend(settled_now)
        return best


def _unchecked_path(asns: tuple[ASN, ...], kind: RouteKind) -> ASPath:
    """Build an :class:`ASPath` without the loop-free validation.

    Only for construction sites that guarantee loop-freedom structurally
    (the BFS passes check containment before extending a path); the
    per-path set materialization in ``__post_init__`` dominates route
    computation on ~30k-AS worlds.
    """
    path = object.__new__(ASPath)
    object.__setattr__(path, "asns", asns)
    object.__setattr__(path, "kind", kind)
    return path


def _beats(challenger: ASPath, incumbent: ASPath) -> bool:
    """Whether ``challenger`` wins the BGP tie-break against ``incumbent``.

    Both paths must be in the same preference class; shorter wins, then the
    lower next-hop ASN.
    """
    if challenger.length != incumbent.length:
        return challenger.length < incumbent.length
    return challenger.next_hop < incumbent.next_hop
