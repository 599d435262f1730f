"""The probing campaign: four months of LG queries across the studied IXPs.

Reproduces Section 3.1's measurement discipline:

* vantage points are the PCH / RIPE LG servers *inside* each IXP;
* one HTML query per minute per LG server, at most;
* each target is swept in multiple rounds placed at different days and
  times of day, so transient congestion cannot poison the minimum;
* PCH queries fire 5 pings, RIPE queries 3 — with 11 PCH and 7 RIPE
  rounds the per-interface reply maxima land at 55/21, matching the
  paper's reported 54/21 up to response loss.

Every sweep compiles one IXP's interface-table rows into a probe plan
for one LG vantage and realizes all its rounds as array draws
(:mod:`repro.lg.batch`); a trial's sweeps and registry identification
land in one :class:`~repro.core.detection.measurements.MeasurementTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.detection.filters import FilterConfig, FilterPipeline
from repro.core.detection.measurements import SOURCE_NAMES, MeasurementTable
from repro.core.detection.results import CampaignResult, build_result
from repro.errors import ConfigurationError
from repro.faults.retry import plan_retries
from repro.faults.schedule import FaultConfig, FaultSchedule, build_fault_schedule
from repro.lg.batch import (
    SweepReplies,
    compile_probe_plan,
    compile_sweep_faults,
    run_sweeps,
    sweep_query_times,
)
from repro.lg.client import LookingGlassClient
from repro.rand import child_rng
from repro.registry.identify import identify_rows
from repro.sim.detection_world import (
    IDENTIFICATION_COVERAGE,
    LG_OPERATORS,
    DetectionWorld,
    ExchangeEntry,
)
from repro.units import MINUTE

#: An empty index/count array: the seed of every concatenation below.
_NONE = np.zeros(0, dtype=np.int64)

#: Measurement-table source code of each identification source.
_SOURCE_CODES = np.array(
    [SOURCE_NAMES.index(label) for label, _ in IDENTIFICATION_COVERAGE]
    + [0],
    dtype=np.int64,
)


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Campaign-level knobs (filter knobs live in :class:`FilterConfig`).

    Sweeps are realized by the array probe engine of
    :mod:`repro.lg.batch`, from the per-(seed, ixp, operator) streams.
    """

    seed: int = 7
    pch_rounds: int = 11
    ripe_rounds: int = 7
    remoteness_threshold_ms: float = 10.0
    filters: FilterConfig = FilterConfig()
    #: Not settable (passing it raises ``TypeError``); the campaign has one
    #: probe engine.  The field keeps its place so this config's repr —
    #: embedded in every detection and joint trial-spec repr that study
    #: fingerprints hash — is unchanged and stored artifacts stay
    #: addressable.
    engine: str = field(default="batch", init=False)
    #: Optional deterministic chaos: a fault schedule is materialized per
    #: campaign from the ``(seed, "faults", ...)`` streams and threaded
    #: through the probe engine (``None`` or zero intensity: byte-
    #: identical to a fault-free campaign).
    faults: FaultConfig | None = None

    def __post_init__(self) -> None:
        if self.pch_rounds <= 0 or self.ripe_rounds <= 0:
            raise ConfigurationError("round counts must be positive")
        if self.remoteness_threshold_ms <= 0:
            raise ConfigurationError("threshold must be positive")

    def rounds_for(self, operator: str) -> int:
        """Probe rounds for one LG operator."""
        return self.pch_rounds if operator == "PCH" else self.ripe_rounds


class ProbeCampaign:
    """Runs the full measurement study over a detection world."""

    def __init__(self, world: DetectionWorld, config: CampaignConfig | None = None):
        self.world = world
        self.config = config or CampaignConfig()
        self.client = LookingGlassClient()
        self._fault_schedule: FaultSchedule | None = None

    def fault_schedule(self) -> FaultSchedule | None:
        """The campaign's materialized chaos, or None when faults are off.

        Built lazily once per campaign from the dedicated fault streams —
        never stored on the world, which stays shareable across trials.
        """
        if self.config.faults is None or not self.config.faults.active:
            return None
        if self._fault_schedule is None:
            self._fault_schedule = build_fault_schedule(
                self.config.faults, self.config.seed, self.world
            )
        return self._fault_schedule

    def _reset_client(self) -> None:
        # Each collection run replays the same simulated four months, so it
        # needs a clean rate-limit ledger.
        self.client = LookingGlassClient()

    def run(self) -> CampaignResult:
        """Probe every published target at every IXP, filter, aggregate."""
        measurements = self.collect()
        pipeline = FilterPipeline(self.config.filters)
        report = pipeline.run(measurements)
        return build_result(
            measurements=measurements,
            report=report,
            threshold_ms=self.config.remoteness_threshold_ms,
        )

    # -- collection -----------------------------------------------------------

    def collect(self) -> MeasurementTable:
        """Raw measurements for every (IXP, published target) pair."""
        self._reset_client()
        return self._collect(
            sorted(self.world.exchanges, key=lambda entry: entry.acronym)
        )

    def collect_ixp(self, acronym: str) -> MeasurementTable:
        """Probe one IXP's target list from each of its LG servers."""
        self._reset_client()
        index = self.world.exchange_index.get(acronym)
        entries = [] if index is None else [self.world.exchanges[index]]
        return self._collect(entries)

    def _collect(self, entries: list[ExchangeEntry]) -> MeasurementTable:
        """Sweep each IXP from each of its vantages, identify its rows, and
        lay the replies out row-major (then by operator)."""
        measured = [e for e in entries if e.stop > e.start and e.vantages]
        sizes = [entry.stop - entry.start for entry in measured]
        first_rows = np.cumsum([0] + sizes)
        seg_row, seg_operator = [_NONE], [_NONE]
        sweeps: list[SweepReplies] = []
        for entry, first_row in zip(measured, first_rows.tolist()):
            for server in entry.vantages:
                replies = self._sweep_server_batch(entry.acronym, server, entry)
                sweeps.append(replies)
                seg_row.append(first_row + np.arange(len(replies)))
                seg_operator.append(
                    np.full(len(replies), LG_OPERATORS.index(server.operator))
                )
        asns, sources = self._identify(measured)

        # Sweeps come operator-major within an IXP; the table wants each
        # row's segments together, operators in name order.
        rows, operators = np.concatenate(seg_row), np.concatenate(seg_operator)
        counts = np.concatenate([_NONE] + [s.counts for s in sweeps])
        order = np.lexsort((operators, rows))
        lengths = counts[order]
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        gather = np.repeat(
            (np.cumsum(counts) - counts)[order] - offsets[:-1], lengths
        ) + np.arange(offsets[-1])

        def flat(name: str, dtype) -> np.ndarray:
            parts = [getattr(s, name) for s in sweeps]
            return np.concatenate([np.zeros(0, dtype)] + parts)[gather]

        return MeasurementTable(
            ixp_names=tuple(entry.acronym for entry in measured),
            ixp=np.repeat(np.arange(len(measured)), sizes),
            address=np.concatenate([_NONE] + [
                self.world.table.address[e.start:e.stop] for e in measured
            ]),
            asn_start=asns[0],
            asn_end=asns[1],
            source=sources,
            operators=LG_OPERATORS,
            seg_row=rows[order],
            seg_operator=operators[order],
            seg_offsets=offsets,
            rtt_ms=flat("rtt_ms", float),
            ttl=flat("ttl", np.int64),
            sent_at_s=flat("sent_at_s", float),
        )

    def _round_starts(self, target_count, server, rounds, rng):
        # One query per target per round; queries are spaced one minute
        # apart, so a round spans the target count in minutes plus the
        # ping burst.
        round_span_s = target_count * MINUTE + server.pings_per_query + 1
        return self.world.window.round_start_times(rounds, rng, round_span_s)

    def _retry_plan(self, acronym, server, query_times, schedule):
        """Plan one sweep's retries from the dedicated backoff stream."""
        retry_rng = child_rng(
            self.config.seed, "faults", "backoff", acronym, server.operator
        )
        plan = plan_retries(
            query_times.ravel(),
            schedule.server_down_fn(server.name),
            schedule.config.retry,
            retry_rng,
        )
        self.client.record_retries(server.name, plan)
        shape = query_times.shape
        return plan.effective_s.reshape(shape), plan.served.reshape(shape)

    def _sweep_server_batch(self, acronym, server, entry) -> SweepReplies:
        """One probe plan, all rounds as array draws."""
        rng = child_rng(self.config.seed, "campaign", acronym, server.operator)
        rounds = self.config.rounds_for(server.operator)
        starts = np.asarray(
            self._round_starts(entry.stop - entry.start, server, rounds, rng)
        )
        plan = compile_probe_plan(self.world.table, entry, server)
        query_times = sweep_query_times(plan, starts)
        # Validate the whole schedule against the ledger before realizing a
        # single probe.  Politeness is enforced on the *planned* grid; retry
        # backoff is bounded to stay within each one-minute slot.
        self.client.record_sweep(server.name, query_times)
        schedule = self.fault_schedule()
        if schedule is None:
            return run_sweeps(plan, starts, rng, query_times)
        effective, served = self._retry_plan(
            acronym, server, query_times, schedule
        )
        sweep_faults = compile_sweep_faults(
            plan, schedule.probe_faults(acronym)
        )
        return run_sweeps(
            plan, starts, rng, effective, served=served, faults=sweep_faults,
        )

    def _identify(
        self, entries: list[ExchangeEntry]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Identify every measured row at both campaign endpoints, in one
        pass over the registry columns (sources cover addresses, which no
        two IXPs share).

        Returns the ``(2, rows)`` ASNs (-1: unidentified) and each row's
        source code: the start's source, else the end's.
        """
        table = self.world.table
        rows = np.concatenate(
            [_NONE] + [np.arange(e.start, e.stop) for e in entries]
        )
        asns, picks = identify_rows(
            self.world.config.seed,
            IDENTIFICATION_COVERAGE,
            table.address[rows],
            table.asn[rows],
            table.well_known[rows],
            table.asn_after[rows],
            table.asn_change_s[rows],
            (0.0, self.world.window.duration_s),
        )
        source = np.where(picks[0] >= 0, picks[0], picks[1])
        return asns, _SOURCE_CODES[source]
