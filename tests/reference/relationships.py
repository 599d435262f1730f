"""The AS relationship graph (customer-provider and peer-peer edges).

The seed implementation's object graph, kept as the reference the
product's edge arrays are held to: the offload-world reference inserts
into it, and :func:`mega_asgraph` bridges a mega world into it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.bgp.asys import AutonomousSystem
from repro.errors import TopologyError
from repro.sim.megatopo import TIER_CLIQUE
from repro.types import ASN


class Relationship(enum.Enum):
    """Economic relationship between two adjacent ASes, from A's viewpoint."""

    CUSTOMER = "customer"  # the neighbour is A's customer
    PROVIDER = "provider"  # the neighbour is A's provider
    PEER = "peer"          # settlement-free peer

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class ASGraph:
    """Directed-relationship AS graph.

    Customer-provider edges are stored once (customer -> provider) and
    indexed both ways; peer edges are symmetric.  The graph enforces basic
    sanity: no self-edges, no duplicate contradictory relationships.

    Adjacency sets are allocated lazily: a node without edges of a given
    kind has no entry in the corresponding dict (the accessors treat a
    missing entry as empty).  On ~30k-AS worlds, eagerly allocating three
    empty sets per AS dominated node insertion.
    """

    _ases: dict[ASN, AutonomousSystem] = field(default_factory=dict)
    _providers: dict[ASN, set[ASN]] = field(default_factory=dict)
    _customers: dict[ASN, set[ASN]] = field(default_factory=dict)
    _peers: dict[ASN, set[ASN]] = field(default_factory=dict)
    # Cached read-only views returned by the *_of queries.  The queries are
    # hot (route computation, customer cones); handing out a fresh set copy
    # per call dominated their cost.  Caches are invalidated per-ASN on
    # edge insertion.
    _provider_views: dict[ASN, frozenset[ASN]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _customer_views: dict[ASN, frozenset[ASN]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _peer_views: dict[ASN, frozenset[ASN]] = field(
        default_factory=dict, compare=False, repr=False
    )

    # --- node management -----------------------------------------------------

    def add_as(self, asys: AutonomousSystem) -> AutonomousSystem:
        """Register an AS; duplicate ASNs are topology errors."""
        if asys.asn in self._ases:
            raise TopologyError(f"duplicate ASN {asys.asn}")
        self._ases[asys.asn] = asys
        return asys

    def add_ases_bulk(self, ases: Iterable[AutonomousSystem]) -> None:
        """Register many ASes at once (the vectorized builders' fast path).

        Equivalent to calling :meth:`add_as` per AS but with the duplicate
        check amortized over the whole batch.
        """
        batch = list(ases)
        new = {asys.asn: asys for asys in batch}
        if len(new) != len(batch):
            raise TopologyError("duplicate ASN inside bulk add")
        clash = new.keys() & self._ases.keys()
        if clash:
            raise TopologyError(f"duplicate ASN {min(clash)}")
        self._ases.update(new)

    def add_customer_provider_arrays(
        self, customers: "np.ndarray", providers: "np.ndarray"
    ) -> None:
        """Record many customer→provider edges at once.

        The fast path behind the vectorized world builders: ``customers``
        and ``providers`` are aligned integer arrays with one row per edge.
        Nodes must already exist and each (customer, provider) pair must be
        fresh and non-contradictory — the engine-equivalence suites check
        the result against the scalar builder, which inserts every edge
        through the fully-checked :meth:`add_customer_provider`.  Rows for
        one customer must be contiguous and that customer must have **no
        pre-existing provider entries** (both hold for the vectorized
        builders, whose edge arrays come out of ``np.repeat`` over freshly
        created nodes).  Provider-side rows may appear in any
        order and may extend existing customer sets.  Adjacency sets are
        assembled per group from array slices instead of per-edge adds.
        """
        if np.any(customers == providers):
            bad = int(customers[customers == providers][0])
            raise TopologyError(f"self-relationship on ASN {bad}")
        customer_list = customers.tolist()
        provider_list = providers.tolist()
        edge_count = len(customer_list)
        if not edge_count:
            return
        provider_sets = self._providers
        starts = np.flatnonzero(customers[1:] != customers[:-1]) + 1
        bounds = [0, *starts.tolist(), edge_count]
        for g in range(len(bounds) - 1):
            lo = bounds[g]
            customer = customer_list[lo]
            if customer in provider_sets:
                # Catches both precondition violations: pre-existing
                # provider edges and non-contiguous rows for one customer.
                raise TopologyError(
                    f"AS{customer} already holds provider edges "
                    "(bulk array insert requires fresh, contiguous customers)"
                )
            provider_sets[customer] = set(provider_list[lo:bounds[g + 1]])
        order = np.argsort(providers, kind="stable")
        sorted_providers = providers[order]
        sorted_customers = customers[order].tolist()
        starts = np.flatnonzero(sorted_providers[1:] != sorted_providers[:-1]) + 1
        bounds = [0, *starts.tolist(), edge_count]
        head_of_group = sorted_providers[
            np.array(bounds[:-1], dtype=np.intp)
        ].tolist()
        customer_sets = self._customers
        for g, provider in enumerate(head_of_group):
            group = sorted_customers[bounds[g]:bounds[g + 1]]
            held = customer_sets.get(provider)
            if held is None:
                customer_sets[provider] = set(group)
            else:
                held.update(group)
        self._provider_views.clear()
        self._customer_views.clear()

    def get(self, asn: ASN) -> AutonomousSystem:
        """The AS object for ``asn``; unknown ASNs are topology errors."""
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown ASN {asn}") from None

    def __contains__(self, asn: ASN) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def asns(self) -> list[ASN]:
        """All registered ASNs, sorted."""
        return sorted(self._ases)

    def ases(self) -> list[AutonomousSystem]:
        """All AS objects, sorted by ASN."""
        return [self._ases[a] for a in self.asns()]

    # --- edge management -------------------------------------------------------

    @staticmethod
    def _edge_set(table: dict[ASN, set[ASN]], asn: ASN) -> set[ASN]:
        """The (lazily created) adjacency set of ``asn`` in ``table``."""
        held = table.get(asn)
        if held is None:
            held = table[asn] = set()
        return held

    def customer_sets(self) -> dict[ASN, set[ASN]]:
        """The raw customer adjacency, keyed by provider ASN.

        Nodes without customers are absent.  Exposed for hot paths (route
        computation, cone closures) that would otherwise pay a frozenset
        view per node; callers must treat it as read-only.
        """
        return self._customers

    def _check_nodes(self, a: ASN, b: ASN) -> None:
        if a == b:
            raise TopologyError(f"self-relationship on ASN {a}")
        if a not in self._ases:
            raise TopologyError(f"unknown ASN {a}")
        if b not in self._ases:
            raise TopologyError(f"unknown ASN {b}")

    def _check_fresh(self, a: ASN, b: ASN) -> None:
        related = (
            b in self._providers.get(a, ())
            or b in self._customers.get(a, ())
            or b in self._peers.get(a, ())
        )
        if related:
            raise TopologyError(f"AS{a} and AS{b} already related")

    def add_customer_provider(self, customer: ASN, provider: ASN) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        self._check_nodes(customer, provider)
        self._check_fresh(customer, provider)
        self._edge_set(self._providers, customer).add(provider)
        self._edge_set(self._customers, provider).add(customer)
        self._provider_views.pop(customer, None)
        self._customer_views.pop(provider, None)

    def add_peering(self, a: ASN, b: ASN) -> None:
        """Record a settlement-free peering between ``a`` and ``b``."""
        self._check_nodes(a, b)
        self._check_fresh(a, b)
        self._edge_set(self._peers, a).add(b)
        self._edge_set(self._peers, b).add(a)
        self._peer_views.pop(a, None)
        self._peer_views.pop(b, None)

    # --- queries ----------------------------------------------------------------

    def providers_of(self, asn: ASN) -> frozenset[ASN]:
        """Direct transit providers of ``asn`` (cached read-only view)."""
        view = self._provider_views.get(asn)
        if view is None:
            self.get(asn)
            view = frozenset(self._providers.get(asn, ()))
            self._provider_views[asn] = view
        return view

    def customers_of(self, asn: ASN) -> frozenset[ASN]:
        """Direct transit customers of ``asn`` (cached read-only view)."""
        view = self._customer_views.get(asn)
        if view is None:
            self.get(asn)
            view = frozenset(self._customers.get(asn, ()))
            self._customer_views[asn] = view
        return view

    def peers_of(self, asn: ASN) -> frozenset[ASN]:
        """Settlement-free peers of ``asn`` (cached read-only view)."""
        view = self._peer_views.get(asn)
        if view is None:
            self.get(asn)
            view = frozenset(self._peers.get(asn, ()))
            self._peer_views[asn] = view
        return view

    def relationship(self, a: ASN, b: ASN) -> Relationship | None:
        """Relationship of ``b`` from ``a``'s viewpoint, or None."""
        self.get(a)
        self.get(b)
        if b in self._customers.get(a, ()):
            return Relationship.CUSTOMER
        if b in self._providers.get(a, ()):
            return Relationship.PROVIDER
        if b in self._peers.get(a, ()):
            return Relationship.PEER
        return None

    def degree(self, asn: ASN) -> int:
        """Total number of neighbours of ``asn``."""
        self.get(asn)
        return (
            len(self._providers.get(asn, ()))
            + len(self._customers.get(asn, ()))
            + len(self._peers.get(asn, ()))
        )

    def provider_free(self) -> list[ASN]:
        """ASes with no providers (the tier-1 clique, typically)."""
        return sorted(a for a in self._ases if not self._providers.get(a))

    # --- validation ---------------------------------------------------------------

    def assert_hierarchy_acyclic(self) -> None:
        """Raise TopologyError if the customer-provider edges contain a cycle.

        A provider cycle would make "customer cone" ill-defined; generated
        worlds must always pass this check.
        """
        state: dict[ASN, int] = {}  # 0 visiting, 1 done

        for start in self._ases:
            if start in state:
                continue
            stack: list[tuple[ASN, iter]] = [
                (start, iter(self._providers.get(start, ())))
            ]
            state[start] = 0
            while stack:
                node, neighbours = stack[-1]
                advanced = False
                for nxt in neighbours:
                    if state.get(nxt) == 0:
                        raise TopologyError(
                            f"provider cycle through AS{node} and AS{nxt}"
                        )
                    if nxt not in state:
                        state[nxt] = 0
                        stack.append((nxt, iter(self._providers.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 1
                    stack.pop()


def mega_asgraph(world) -> ASGraph:
    """A :class:`~repro.sim.megatopo.MegaWorld` as an object AS graph.

    Builds one ``AutonomousSystem`` per network — the exact O(n) object
    path the mega tier exists to avoid — for small-n equivalence tests.
    """
    graph = ASGraph()
    graph.add_ases_bulk(world.pool.network(i).asys for i in range(len(world)))
    counts = np.diff(world.provider_indptr)
    customers = world.pool.asn[np.repeat(np.arange(len(world)), counts)]
    providers = world.pool.asn[world.provider_indices]
    # CSR rows are ascending-customer and contiguous, which is the
    # add_customer_provider_arrays contract.
    graph.add_customer_provider_arrays(customers, providers)
    clique = np.flatnonzero(world.tier == TIER_CLIQUE)
    for a in range(len(clique)):
        for b in range(a + 1, len(clique)):
            graph.add_peering(
                int(world.pool.asn[clique[a]]), int(world.pool.asn[clique[b]])
            )
    return graph
