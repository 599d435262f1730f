"""The seed implementation's probe engine: one LG query per Python call.

Also here: :func:`compile_fabric_plan`, which compiles a probe plan from
a fabric's port and device objects instead of an interface table.

:class:`ReferenceCampaign` sweeps every (round, target) slot through
:meth:`ReferenceClient.submit`, which enforces the rate limit per query
and asks :meth:`~tests.reference.objects.LookingGlassServer.query` for
one ping burst — over a world's object view (``ixps``, ``lg_servers``,
``directory``, ``identification``): a product world is read through
:class:`~tests.reference.views.ObjectWorld`.  It opens the same per-(seed, IXP,
operator) streams as the product's array engine
(:mod:`repro.lg.batch`) but draws in probe order, so the two agree in
distribution, not bit for bit (``tests/test_probe_batch.py``); both plan
retries on the identical query grid from the same backoff stream, so
their retry and drop counts agree exactly
(``tests/test_campaign_faults.py``).  Its measurements hold lists of
:class:`~repro.net.icmp.EchoReply`; ``tests/test_reference_digests.py``
pins them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.detection.campaign import ProbeCampaign
from repro.core.detection.filters import FilterPipeline
from repro.core.detection.results import CampaignResult, build_result
from repro.delaymodel.congestion import CongestionProcess, NoCongestion
from repro.errors import RateLimitError
from repro.lg.batch import ProbePlan
from repro.lg.client import LookingGlassClient
from repro.net.addr import IPv4Address
from repro.net.icmp import EchoReply
from repro.rand import child_rng
from repro.sim.detection_world import DetectionWorld
from repro.units import MINUTE
from tests.reference.filters import ReferenceMeasurement, product_measurement
from tests.reference.objects import LookingGlassServer
from tests.reference.views import ObjectWorld

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import ProbeFaults


@dataclass(frozen=True, slots=True)
class QueryResult:
    """The outcome of one HTML query to one LG server."""

    server_name: str
    operator: str
    target: IPv4Address
    sent_at_s: float
    replies: tuple[EchoReply, ...]

    @property
    def reply_count(self) -> int:
        """How many pings were answered."""
        return len(self.replies)


def compile_fabric_plan(
    server: LookingGlassServer, addresses: list[IPv4Address]
) -> ProbePlan:
    """Compile one server's sweep from its fabric's ports and devices.

    The object model's reading of a plan: hand-built fabrics in the
    tests compile through it, and it is the reference the product's
    table compiler is held to.  The LG port's own congestion gets its
    own group ahead of the target ports' groups.
    """
    n = len(addresses)
    reachable = np.zeros(n, dtype=bool)
    base_rtt = np.zeros(n, dtype=float)
    respond_prob = np.zeros(n, dtype=float)
    processing = np.zeros(n, dtype=float)
    ttl_init = np.ones(n, dtype=np.int64)
    ttl_after = np.ones(n, dtype=np.int64)
    os_change = np.full(n, np.inf)
    extra_hops = np.zeros(n, dtype=np.int64)
    # The LG port's own congestion gets a dedicated group (it applies to
    # every on-LAN target); target-port processes are grouped by value.
    # Keeping the two endpoints in separate groups guarantees a target
    # index never repeats inside one group's fancy index, so each endpoint
    # contributes its own independent draw, even when both ports carry
    # equal-valued processes.
    lg_indices: list[int] = []
    group_indices: dict[CongestionProcess, list[int]] = {}

    fabric = server.fabric
    lg_congestion = server.port.profile.congestion
    for j, address in enumerate(addresses):
        if fabric.has_address(address):
            port = fabric.port_for(address)
            device = port.interface.device
            base_rtt[j] = fabric.base_path_rtt_ms(
                server.port, port
            ) + port.operator_bias.get(server.operator, 0.0)
            extra_hops[j] = device.reply_extra_hops
            if not isinstance(lg_congestion, NoCongestion):
                lg_indices.append(j)
            if not isinstance(port.profile.congestion, NoCongestion):
                group_indices.setdefault(port.profile.congestion, []).append(j)
        else:
            offlan = server.offlan_targets.get(address.value)
            if offlan is None:
                continue  # published but unreachable: every probe times out
            device = offlan.device
            base_rtt[j] = offlan.base_rtt_ms
            extra_hops[j] = offlan.extra_hops
        reachable[j] = True
        respond_prob[j] = device.respond_probability
        processing[j] = device.processing_ms
        ttl_init[j] = device.ttl_init
        if device.ttl_after_change is not None:
            ttl_after[j] = device.ttl_after_change
            os_change[j] = device.os_change_time
        else:
            ttl_after[j] = device.ttl_init

    return ProbePlan(
        server_name=server.name,
        operator=server.operator,
        pings_per_query=server.pings_per_query,
        address_values=np.array([a.value for a in addresses], dtype=np.int64),
        reachable=reachable,
        base_rtt_ms=base_rtt,
        respond_prob=respond_prob,
        processing_ms=processing,
        ttl_init=ttl_init,
        ttl_after=ttl_after,
        os_change_s=os_change,
        extra_hops=extra_hops,
        congestion_groups=(
            [(lg_congestion, np.array(lg_indices, dtype=np.intp))]
            if lg_indices else []
        ) + [
            (process, np.array(indices, dtype=np.intp))
            for process, indices in group_indices.items()
        ],
        jitter=fabric.jitter,
    )


class ReferenceClient(LookingGlassClient):
    """The rate-limit ledger plus per-query submission."""

    def submit(
        self,
        server: LookingGlassServer,
        target: IPv4Address,
        time_s: float,
        rng: np.random.Generator,
        effective_s: float | None = None,
        served: bool = True,
        faults: "ProbeFaults | None" = None,
    ) -> QueryResult:
        """Submit one HTML query, enforcing the per-server rate limit.

        The rate limit is enforced on the *planned* slot ``time_s``; under
        a fault schedule the retry planner may shift the actual send to
        ``effective_s`` (bounded so it stays within the slot — see
        :class:`~repro.faults.retry.RetryPolicy`) or declare the slot
        unservable (``served=False``), in which case the query is counted
        as dropped and no probes are sent.
        """
        last = self._last_query_at.get(server.name)
        # The 1 ms tolerance absorbs float rounding of minute-spaced
        # schedules at large simulated timestamps.
        if last is not None and time_s - last < self.min_interval_s - 1e-3:
            raise RateLimitError(
                f"{server.name}: query at t={time_s:.0f}s violates the "
                f"{self.min_interval_s:.0f}s per-server interval "
                f"(previous at t={last:.0f}s)"
            )
        self._last_query_at[server.name] = time_s
        self._query_counts[server.name] = self._query_counts.get(server.name, 0) + 1
        if not served:
            # Dropped slots are tallied once per sweep via record_retries
            # (both engines record the identical plan), not per submit.
            return QueryResult(
                server_name=server.name,
                operator=server.operator,
                target=target,
                sent_at_s=time_s,
                replies=(),
            )
        sent_at = time_s if effective_s is None else effective_s
        replies = server.query(target, sent_at, rng, faults)
        return QueryResult(
            server_name=server.name,
            operator=server.operator,
            target=target,
            sent_at_s=sent_at,
            replies=tuple(replies),
        )



class ReferenceCampaign(ProbeCampaign):
    """The campaign with the per-probe engine, over a world's objects."""

    def __init__(self, world, config=None) -> None:
        if isinstance(world, DetectionWorld):
            world = ObjectWorld(world)
        super().__init__(world, config)

    def _reset_client(self) -> None:
        self.client = ReferenceClient()

    def run(self) -> CampaignResult:
        """Collect, then filter and aggregate with the product pipeline."""
        measurements = [product_measurement(m) for m in self.collect()]
        report = FilterPipeline(self.config.filters).run(measurements)
        return build_result(
            measurements=measurements,
            report=report,
            threshold_ms=self.config.remoteness_threshold_ms,
        )

    def collect(self) -> list[ReferenceMeasurement]:
        """Raw measurements for every (IXP, published target) pair."""
        self._reset_client()
        collected: list[ReferenceMeasurement] = []
        for acronym in sorted(self.world.ixps):
            collected.extend(self._collect_ixp(acronym))
        return collected

    def collect_ixp(self, acronym: str) -> list[ReferenceMeasurement]:
        self._reset_client()
        return self._collect_ixp(acronym)

    def _collect_ixp(self, acronym: str) -> list[ReferenceMeasurement]:
        targets = self.world.directory.targets_for(acronym)
        servers = self.world.lg_servers.get(acronym, [])
        if not targets or not servers:
            return []
        measurements = {
            record.address.value: ReferenceMeasurement(
                ixp_acronym=acronym, address=record.address
            )
            for record in targets
        }
        for server in servers:
            rounds = self.config.rounds_for(server.operator)
            self._sweep_server_scalar(
                acronym, server, targets, rounds, measurements
            )
        self._identify(acronym, measurements)
        return [measurements[r.address.value] for r in targets]

    def _sweep_server_scalar(self, acronym, server, targets, rounds, measurements) -> None:
        """The reference engine: one client query per (round, target)."""
        rng = child_rng(self.config.seed, "campaign", acronym, server.operator)
        starts = self._round_starts(len(targets), server, rounds, rng)
        schedule = self.fault_schedule()
        effective = served = probe_faults = None
        if schedule is not None:
            # The identical planned grid the product validates, so the
            # shared-stream retry plan is bit-identical across engines.
            query_times = np.asarray(starts, dtype=float)[:, None] + (
                np.arange(len(targets), dtype=float)[None, :] * MINUTE
            )
            effective, served = self._retry_plan(
                acronym, server, query_times, schedule
            )
            probe_faults = schedule.probe_faults(acronym)
        for r, start in enumerate(starts):
            for index, record in enumerate(targets):
                query_time = start + index * MINUTE
                if schedule is None:
                    result = self.client.submit(
                        server, record.address, query_time, rng
                    )
                else:
                    result = self.client.submit(
                        server, record.address, query_time, rng,
                        effective_s=float(effective[r, index]),
                        served=bool(served[r, index]),
                        faults=probe_faults,
                    )
                slot = measurements[record.address.value]
                replies = slot.replies_by_operator.setdefault(server.operator, [])
                replies.extend(result.replies)

    def _identify(self, acronym: str, measurements) -> None:
        pipeline = self.world.identification
        start_s = 0.0
        end_s = self.world.window.duration_s
        for slot in measurements.values():
            # One span query per slot: the sources resolve each registry
            # record once and reuse the (time-independent) coverage draw
            # for both endpoints — bit-identical to two identify() calls.
            first, last = pipeline.identify_span(
                acronym, slot.address, start_s, end_s
            )
            slot.asn_at_start = first.asn
            slot.asn_at_end = last.asn
            slot.identification_source = first.source or last.source
