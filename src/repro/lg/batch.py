"""The probe engine for looking-glass sweep campaigns.

The four-month campaign sends ~300k probes.  This module compiles each
(LG server x target list) sweep into a numpy *probe plan* and realizes
every round's stochastic components as array draws; it is the product's
one probe engine.  The seed implementation's one-probe-per-call server
(``LookingGlassServer.query``) is kept in ``tests/reference/`` as the
oracle it agrees with in distribution (``tests/test_probe_batch.py``).

Plans
-----
A :class:`ProbePlan` holds one row per target, in sweep order (index
``j`` below).  All static per-(server, target) quantities are 1-D arrays
of length ``N``:

* ``base_rtt_ms[j]``   — deterministic path RTT: port tails + switch
  crossing + inter-site backhaul + this operator's LAG/ECMP bias for
  on-LAN targets; the off-LAN detour RTT for stale registry entries.
* ``respond_prob[j]``, ``processing_ms[j]`` — the answering device's ICMP
  behaviour (blackholing probability, slow-path mean).
* ``ttl_init[j]``, ``ttl_after[j]``, ``os_change_s[j]`` — reply-TTL
  schedule; ``os_change_s`` is ``+inf`` when the device never changes OS.
* ``extra_hops[j]``    — IP hops the reply crosses outside the LAN.
* ``reachable[j]``     — False when the address is published but answers
  nowhere (probes time out).

:func:`compile_probe_plan` reads one IXP's rows of a detection world's
interface table for one LG vantage.  Congestion is *grouped*: targets
sharing a congestion process are listed once under that process, so the
common ``NoCongestion`` case costs nothing and each distinct process does
one vectorized draw per sweep.

Reply table
-----------
Execution (:func:`run_sweeps`) broadcasts the plan over ``R`` rounds and
``P`` pings per query into ``(R, N, P)`` arrays — probe send times follow
the campaign discipline exactly (queries one minute apart within a round,
pings one second apart within a query).  Stochastic components are drawn
in a fixed, documented order from the per-(seed, ixp, operator) stream
(see :mod:`repro.rand`): queueing jitter, then each congestion group in
plan order, then response loss, then slow-path processing.  The answered
probes come back as one :class:`SweepReplies` table: three flat arrays
(RTT, received TTL, send time), target-major and in probe order within a
target, plus the per-target reply counts.  ``SweepReplies[j]`` is target
``j``'s :class:`ReplyBatch` as a view into those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.delaymodel.congestion import CongestionProcess
from repro.delaymodel.jitter import JitterModel
from repro.layer2.fabric import SWITCH_CROSSING_MS
from repro.lg.server import LG_TAIL_RTT_MS, LGVantage
from repro.net.icmp import ReplyBatch
from repro.units import MINUTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import ProbeFaults
    from repro.sim.detection_world import ExchangeEntry, InterfaceTable

#: The jitter law of every generated world's fabric (the reference
#: ``PeeringFabric`` default).
DEFAULT_JITTER = JitterModel()


@dataclass(slots=True)
class ProbePlan:
    """A compiled (LG server x target list) sweep: all static quantities."""

    server_name: str
    operator: str
    pings_per_query: int
    address_values: np.ndarray  # int64[N], IPv4 values in sweep order
    reachable: np.ndarray      # bool[N]
    base_rtt_ms: np.ndarray    # float[N]
    respond_prob: np.ndarray   # float[N]
    processing_ms: np.ndarray  # float[N]
    ttl_init: np.ndarray       # int[N]
    ttl_after: np.ndarray      # int[N]
    os_change_s: np.ndarray    # float[N], +inf when the OS never changes
    extra_hops: np.ndarray     # int[N]
    #: (process, target indices) pairs in first-seen target order.  A
    #: target index never repeats inside one group, so fancy-indexed
    #: accumulation applies every endpoint's contribution.
    congestion_groups: list[tuple[CongestionProcess, np.ndarray]]
    jitter: JitterModel

    def __len__(self) -> int:
        return len(self.address_values)


def compile_probe_plan(
    table: "InterfaceTable", entry: "ExchangeEntry", vantage: LGVantage
) -> ProbePlan:
    """Compile one IXP's interface rows for one LG vantage.

    Row order is the IXP's address order (the published target list).
    The base RTT sums exactly as the fabric does —
    ``((lg_tail + tail) + switch_crossing) + intersite``, then the
    operator's bias — so a plan matches the object model's bit for bit.
    """
    # Imported here: the world module imports this package.
    from repro.sim.detection_world import (
        CONGESTION_NONE,
        LG_OPERATORS,
        congestion_process,
    )

    rows = slice(entry.start, entry.stop)
    on_lan = table.on_lan[rows]
    base = (LG_TAIL_RTT_MS + table.tail_rtt_ms[rows]) + SWITCH_CROSSING_MS
    if entry.intersite_rtt_ms is not None:
        base = base + np.where(
            table.site_b[rows], entry.intersite_rtt_ms, 0.0
        )
    base = base + table.bias_ms[rows, LG_OPERATORS.index(vantage.operator)]
    # Target-port processes are grouped by value, in first-seen row order;
    # constructing each one validates its parameters.
    kinds = table.congestion[rows]
    congested = np.flatnonzero(on_lan & (kinds != CONGESTION_NONE))
    keyed: dict[tuple, list[int]] = {}
    for j, key in zip(
        congested.tolist(),
        zip(
            kinds[congested].tolist(),
            table.congestion_a[rows][congested].tolist(),
            table.congestion_b[rows][congested].tolist(),
        ),
    ):
        keyed.setdefault(key, []).append(j)

    return ProbePlan(
        server_name=vantage.name,
        operator=vantage.operator,
        pings_per_query=vantage.pings_per_query,
        address_values=table.address[rows],
        reachable=np.ones(len(on_lan), dtype=bool),
        base_rtt_ms=np.where(on_lan, base, table.offlan_rtt_ms[rows]),
        respond_prob=table.respond_prob[rows],
        processing_ms=table.processing_ms[rows],
        ttl_init=table.ttl_init[rows],
        ttl_after=table.ttl_after[rows],
        os_change_s=table.os_change_s[rows],
        extra_hops=np.where(
            on_lan, table.reply_hops[rows], table.offlan_hops[rows]
        ),
        congestion_groups=[
            (congestion_process(*key), np.array(js, dtype=np.intp))
            for key, js in keyed.items()
        ],
        jitter=DEFAULT_JITTER,
    )


def sweep_query_times(plan: ProbePlan, starts: np.ndarray) -> np.ndarray:
    """Per-round query times, ``(R, N)``: one query per target per minute."""
    starts = np.asarray(starts, dtype=float)
    return starts[:, None] + np.arange(len(plan), dtype=float)[None, :] * MINUTE


@dataclass(slots=True)
class SweepFaults:
    """A probe-fault slice compiled against one plan's target order.

    The schedule keys faults by interface address; a sweep works in plan
    index space.  Compiling once per sweep keeps :func:`run_sweeps` free
    of dict lookups — and every fault application below is *draw-free*
    (masks and addends over already-drawn arrays), so a faulted sweep
    consumes exactly the same RNG draws as a clean one.
    """

    loss_edges: np.ndarray          # merged flat edges, possibly empty
    loss_severity: float
    flap_by_index: dict[int, np.ndarray]
    dark_by_index: dict[int, tuple[np.ndarray, float]]


def compile_sweep_faults(
    plan: ProbePlan, faults: "ProbeFaults"
) -> SweepFaults:
    """Re-key one IXP's :class:`ProbeFaults` by plan target index."""
    flap_by_index: dict[int, np.ndarray] = {}
    dark_by_index: dict[int, tuple[np.ndarray, float]] = {}
    for j, value in enumerate(plan.address_values.tolist()):
        flap_edges = faults.flap_edges.get(value)
        if flap_edges is not None and flap_edges.size:
            flap_by_index[j] = flap_edges
        dark = faults.failover.windows.get(value)
        if dark is not None and dark[0].size:
            dark_by_index[j] = dark
    return SweepFaults(
        loss_edges=faults.loss_edges,
        loss_severity=faults.loss_severity,
        flap_by_index=flap_by_index,
        dark_by_index=dark_by_index,
    )


def _edge_mask(edges: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Vectorized membership test against merged flat window edges."""
    return np.searchsorted(edges, times, side="right") % 2 == 1


@dataclass(eq=False, slots=True)
class SweepReplies:
    """One sweep's answered probes as a reply table.

    ``rtt_ms``, ``ttl`` and ``sent_at_s`` are flat and target-major (probe
    order within a target); ``counts[j]`` is target ``j``'s reply count.
    As a sequence it yields one :class:`ReplyBatch` view per target.
    """

    rtt_ms: np.ndarray
    ttl: np.ndarray
    sent_at_s: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, j: int) -> ReplyBatch:
        if not -len(self) <= j < len(self):
            raise IndexError(j)
        j %= len(self)
        start = int(self.counts[:j].sum())
        stop = start + int(self.counts[j])
        return ReplyBatch(
            rtt_ms=self.rtt_ms[start:stop],
            ttl=self.ttl[start:stop],
            sent_at_s=self.sent_at_s[start:stop],
        )

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __eq__(self, other: object) -> bool:
        try:
            return len(self) == len(other) and all(  # type: ignore[arg-type]
                a == b for a, b in zip(self, other)  # type: ignore[call-overload]
            )
        except TypeError:
            return NotImplemented


def run_sweeps(
    plan: ProbePlan,
    starts: np.ndarray,
    rng: np.random.Generator,
    query_times: np.ndarray | None = None,
    served: np.ndarray | None = None,
    faults: SweepFaults | None = None,
) -> SweepReplies:
    """Realize all rounds of one plan into one reply table.

    ``starts`` holds the R round start times.  ``query_times`` accepts the
    ``(R, N)`` grid from :func:`sweep_query_times` when the caller already
    computed it (e.g. to validate the rate-limit ledger up front, or to
    substitute the retry planner's *effective* send times); otherwise it
    is derived from ``starts``.  ``served`` is an optional ``(R, N)`` mask
    of slots the retry planner gave up on (their probes time out);
    ``faults`` applies scheduled chaos as draw-free masks and addends, so
    ``faults=None`` sweeps are byte-identical with or without this code
    path compiled in.

    Stochastic draw order (fixed so a given stream is reproducible):
    jitter, congestion groups in plan order, response loss, processing.
    """
    if query_times is None:
        query_times = sweep_query_times(plan, starts)
    rounds, n = query_times.shape
    pings = plan.pings_per_query
    # Probe send times: pings are spaced one second apart within a query.
    sent = query_times[:, :, None] + np.arange(pings, dtype=float)[None, None, :]

    rtt = plan.base_rtt_ms[None, :, None] + plan.jitter.sample_batch_ms(
        rng, (rounds, n, pings)
    )
    for process, indices in plan.congestion_groups:
        rtt[:, indices, :] += process.delay_batch_ms(sent[:, indices, :], rng)

    if faults is not None:
        # Transit-detour RTT while a target's pseudowire is dark.
        for j, (edges, extra_ms) in faults.dark_by_index.items():
            rtt[:, j, :] += extra_ms * _edge_mask(edges, sent[:, j, :])

    respond_prob = np.broadcast_to(
        plan.respond_prob[None, :, None], (rounds, n, pings)
    )
    if faults is not None and faults.loss_severity > 0 and faults.loss_edges.size:
        # Loss bursts degrade response probability; the uniform draw is
        # the same single array either way, so later draws never shift.
        in_burst = _edge_mask(faults.loss_edges, sent)
        respond_prob = np.where(
            in_burst, respond_prob * (1.0 - faults.loss_severity), respond_prob
        )
    answered = rng.random((rounds, n, pings)) < respond_prob
    answered &= plan.reachable[None, :, None]
    if faults is not None:
        for j, edges in faults.flap_by_index.items():
            answered[:, j, :] &= ~_edge_mask(edges, sent[:, j, :])
    if served is not None:
        answered &= served[:, :, None]

    ttl_stamp = np.where(
        sent >= plan.os_change_s[None, :, None],
        plan.ttl_after[None, :, None],
        plan.ttl_init[None, :, None],
    )
    ttl = ttl_stamp - plan.extra_hops[None, :, None]
    answered &= ttl > 0  # replies that die in transit look like timeouts

    rtt += rng.exponential(1.0, (rounds, n, pings)) * plan.processing_ms[None, :, None]

    # Target-major, so boolean indexing (row-major) gathers the answered
    # probes grouped by target, in probe order.
    flat = rounds * pings
    answered_t = np.ascontiguousarray(answered.transpose(1, 0, 2)).reshape(n, flat)

    def gather(values: np.ndarray) -> np.ndarray:
        return values.transpose(1, 0, 2).reshape(n, flat)[answered_t]

    return SweepReplies(
        rtt_ms=gather(rtt),
        ttl=gather(ttl),
        sent_at_s=gather(sent),
        counts=answered_t.sum(axis=1),
    )
