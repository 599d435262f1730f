"""Seeded fault schedules: timed chaos windows over a campaign.

Every fault is a *window* — an interval of sim time during which some
component misbehaves — drawn from a dedicated child RNG stream, so a
schedule is a pure function of ``(seed, FaultConfig, world)``.  Window
counts follow a Poisson law in the event rate, starts are uniform over
the span, and durations are exponential; the ``duration_scale`` knob is
applied *after* drawing, so on a fixed seed scaling it up only stretches
the same windows — unions grow monotonically, which is what makes the
failover scenario's billing error provably monotone in dark-window
duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy
from repro.layer2.failover import FailoverState
from repro.net.addr import IPv4Address
from repro.rand import child_rng
from repro.units import DAY, FIVE_MINUTES, HOUR, MINUTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.detection_world import DetectionWorld

PSEUDOWIRE_DARK = "pseudowire-dark"
PORT_FLAP = "port-flap"
LG_OUTAGE = "lg-outage"
RATE_LIMIT_STORM = "rate-limit-storm"
PROBE_LOSS = "probe-loss"

FAULT_KINDS = (
    PSEUDOWIRE_DARK,
    PORT_FLAP,
    LG_OUTAGE,
    RATE_LIMIT_STORM,
    PROBE_LOSS,
)

#: Shared empty window set — a valid (even-length, sorted) edge array.
_NO_EDGES = np.zeros(0)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timed fault, for reporting and event-trace assertions."""

    kind: str
    ixp: str
    target: str  # interface address, LG server name, or LAN acronym
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Knobs for fault generation.  Rates are events per 30 days.

    ``intensity`` scales every event *rate* together (0 disables all
    faults); ``duration_scale`` stretches every drawn *duration* without
    re-drawing starts or counts, so sweeping it on a fixed seed yields
    nested window unions.
    """

    intensity: float = 1.0
    duration_scale: float = 1.0
    #: Pseudowire dark windows per remote interface (transit fallback).
    dark_rate: float = 0.4
    dark_mean_s: float = 4 * HOUR
    #: Hard port flaps per candidate interface (no replies while down).
    flap_rate: float = 1.2
    flap_mean_s: float = 2 * MINUTE
    #: Looking-glass outages per server (queries fail, retries fire).
    lg_outage_rate: float = 1.0
    lg_outage_mean_s: float = 45 * MINUTE
    #: Rate-limit storms per server (indistinguishable from outages to
    #: the client: the query slot fails and the retry planner takes over).
    storm_rate: float = 2.0
    storm_mean_s: float = 5 * MINUTE
    #: Probe-loss bursts per IXP LAN, degrading response probability.
    loss_rate: float = 3.0
    loss_mean_s: float = 20 * MINUTE
    #: Fraction of response probability removed inside a loss burst.
    loss_severity: float = 0.75
    #: Transit-detour RTT while dark: base RTT is multiplied by this ...
    fallback_rtt_factor: float = 2.2
    #: ... plus a flat per-hop penalty for the longer AS path.
    fallback_extra_ms: float = 8.0
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        if self.intensity < 0 or self.duration_scale < 0:
            raise ConfigurationError(
                "intensity and duration_scale cannot be negative"
            )
        rates = (self.dark_rate, self.flap_rate, self.lg_outage_rate,
                 self.storm_rate, self.loss_rate)
        means = (self.dark_mean_s, self.flap_mean_s, self.lg_outage_mean_s,
                 self.storm_mean_s, self.loss_mean_s)
        if any(r < 0 for r in rates) or any(m <= 0 for m in means):
            raise ConfigurationError(
                "fault rates must be >= 0 and mean durations > 0"
            )
        if not 0.0 <= self.loss_severity <= 1.0:
            raise ConfigurationError("loss_severity must be in [0, 1]")
        if self.fallback_rtt_factor < 1.0 or self.fallback_extra_ms < 0:
            raise ConfigurationError(
                "fallback penalty must not shorten the path"
            )

    @property
    def active(self) -> bool:
        """Whether this config can produce any fault at all."""
        return self.intensity > 0


def merge_windows(starts_s: np.ndarray, durations_s: np.ndarray) -> np.ndarray:
    """Merge possibly-overlapping windows into flat sorted edges.

    Returns ``[s0, e0, s1, e1, ...]`` with disjoint, sorted intervals;
    membership is then a single ``searchsorted`` parity test
    (:func:`window_mask`).  Zero-length windows vanish.
    """
    starts = np.asarray(starts_s, dtype=float)
    durs = np.asarray(durations_s, dtype=float)
    if starts.shape != durs.shape:
        raise ConfigurationError("starts and durations must align")
    keep = durs > 0
    starts, durs = starts[keep], durs[keep]
    if starts.size == 0:
        return _NO_EDGES
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], (starts + durs)[order]
    edges: list[float] = []
    cur_start, cur_end = float(starts[0]), float(ends[0])
    for s, e in zip(starts[1:], ends[1:]):
        if s <= cur_end:
            cur_end = max(cur_end, float(e))
        else:
            edges.extend((cur_start, cur_end))
            cur_start, cur_end = float(s), float(e)
    edges.extend((cur_start, cur_end))
    return np.asarray(edges)


def window_mask(edges: np.ndarray, times_s: np.ndarray) -> np.ndarray:
    """True where ``times_s`` falls inside any window (parity test)."""
    times = np.asarray(times_s, dtype=float)
    if edges.size == 0:
        return np.zeros(times.shape, dtype=bool)
    return np.searchsorted(edges, times, side="right") % 2 == 1


def draw_windows(
    rng: np.random.Generator,
    rate_per_month: float,
    mean_duration_s: float,
    span_s: float,
    intensity: float = 1.0,
    duration_scale: float = 1.0,
) -> np.ndarray:
    """Draw one component's fault windows as merged flat edges.

    Count ~ Poisson(rate x intensity x span/30d), starts uniform over the
    span, durations exponential with the given mean.  ``duration_scale``
    multiplies durations *after* the draw, so scale sweeps on one seed
    share counts and starts and only stretch the windows (clipped to the
    span) — the resulting unions are nested across scales.
    """
    expected = rate_per_month * intensity * span_s / (30 * DAY)
    if expected <= 0:
        return _NO_EDGES
    count = int(rng.poisson(expected))
    starts = rng.uniform(0.0, span_s, size=count)
    durations = rng.exponential(mean_duration_s, size=count) * duration_scale
    ends = np.minimum(starts + durations, span_s)
    return merge_windows(starts, ends - starts)


def window_overlap_fractions(
    edges: np.ndarray, bin_count: int, bin_s: float = FIVE_MINUTES
) -> np.ndarray:
    """Per-bin fraction of each time bin covered by the windows.

    Bin ``i`` spans ``[i*bin_s, (i+1)*bin_s)``.  Computed from the
    coverage primitive ``covered(t)`` (total window time in ``[0, t]``),
    which is exact — no sampling — so scaling windows up can only raise
    every bin's fraction.
    """
    if bin_count < 0:
        raise ConfigurationError("bin_count cannot be negative")
    bounds = np.arange(bin_count + 1, dtype=float) * bin_s
    if edges.size == 0:
        return np.zeros(bin_count)
    starts, ends = edges[0::2], edges[1::2]
    cumdur = np.concatenate([[0.0], np.cumsum(ends - starts)])
    # Windows fully ended by each boundary, plus the partial current one.
    done = np.searchsorted(ends, bounds, side="right")
    covered = cumdur[done]
    partial_idx = np.minimum(done, starts.size - 1)
    partial = np.clip(
        bounds - starts[partial_idx],
        0.0,
        (ends - starts)[partial_idx],
    )
    covered = covered + np.where(done < starts.size, partial, 0.0)
    # Clip the float residue: a fully-covered bin must be exactly 1.0 so
    # downstream fallback series never exceed their offload component.
    return np.clip(np.diff(covered) / bin_s, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class ProbeFaults:
    """The probe-path slice of a schedule for one IXP LAN.

    Passed into the LG server / batch sweep engines alongside the world
    (never stored on it).  ``flap_edges`` is keyed by interface address
    value; ``failover`` carries the dark windows and transit penalties.
    """

    loss_edges: np.ndarray = field(default_factory=lambda: _NO_EDGES)
    loss_severity: float = 0.0
    flap_edges: dict[int, np.ndarray] = field(default_factory=dict)
    failover: FailoverState = FailoverState()


@dataclass(frozen=True, slots=True)
class FaultSchedule:
    """Every fault window of one campaign, fully materialized.

    All window sets are merged flat edge arrays (see
    :func:`merge_windows`).  ``server_down`` is the per-server union of
    LG outages and rate-limit storms — the client cannot tell them
    apart, it only sees failed query slots.
    """

    span_s: float
    config: FaultConfig
    failover: FailoverState = FailoverState()
    #: acronym -> address value -> hard-down windows.
    flaps: dict[str, dict[int, np.ndarray]] = field(default_factory=dict)
    #: acronym -> LAN-wide probe-loss burst windows.
    loss: dict[str, np.ndarray] = field(default_factory=dict)
    #: LG server name -> merged outage+storm windows.
    server_down: dict[str, np.ndarray] = field(default_factory=dict)
    events: tuple[FaultEvent, ...] = ()

    def probe_faults(self, acronym: str) -> ProbeFaults:
        """The probe-path fault slice for one IXP's sweeps."""
        return ProbeFaults(
            loss_edges=self.loss.get(acronym, _NO_EDGES),
            loss_severity=self.config.loss_severity,
            flap_edges=self.flaps.get(acronym, {}),
            failover=self.failover,
        )

    def server_down_fn(self, name: str) -> Callable[[np.ndarray], np.ndarray]:
        """Availability predicate for one LG server (for the retry planner)."""
        edges = self.server_down.get(name, _NO_EDGES)
        return lambda times_s: window_mask(edges, times_s)


def _edge_events(
    kind: str, ixp: str, target: str, edges: np.ndarray
) -> list[FaultEvent]:
    return [
        FaultEvent(kind=kind, ixp=ixp, target=target,
                   start_s=float(edges[i]), end_s=float(edges[i + 1]))
        for i in range(0, edges.size, 2)
    ]


def build_fault_schedule(
    config: FaultConfig, seed: int, world: "DetectionWorld"
) -> FaultSchedule:
    """Materialize a world's fault schedule from its dedicated streams.

    Iteration is over *sorted* keys (IXPs by acronym, interfaces by
    address, read from the world's interface table), and each component
    draws from its own ``(seed, "faults", kind, ...)`` stream, so the
    schedule is identical regardless of iteration quirks — and adding a
    fault kind never perturbs the others.
    """
    span = world.window.duration_s
    if not config.active:
        return FaultSchedule(span_s=span, config=config)
    events: list[FaultEvent] = []
    failover_windows: dict[int, tuple[np.ndarray, float]] = {}
    flaps: dict[str, dict[int, np.ndarray]] = {}
    loss: dict[str, np.ndarray] = {}
    server_down: dict[str, np.ndarray] = {}
    exchanges = sorted(world.exchanges, key=lambda entry: entry.acronym)

    for acronym in (entry.acronym for entry in exchanges):
        edges = draw_windows(
            child_rng(seed, "faults", PROBE_LOSS, acronym),
            config.loss_rate, config.loss_mean_s, span,
            config.intensity, config.duration_scale,
        )
        if edges.size:
            loss[acronym] = edges
            events += _edge_events(PROBE_LOSS, acronym, acronym, edges)

    for entry in exchanges:
        acronym = entry.acronym
        for server in entry.vantages:
            outages = draw_windows(
                child_rng(seed, "faults", LG_OUTAGE, server.name),
                config.lg_outage_rate, config.lg_outage_mean_s, span,
                config.intensity, config.duration_scale,
            )
            storms = draw_windows(
                child_rng(seed, "faults", RATE_LIMIT_STORM, server.name),
                config.storm_rate, config.storm_mean_s, span,
                config.intensity, config.duration_scale,
            )
            events += _edge_events(LG_OUTAGE, acronym, server.name, outages)
            events += _edge_events(
                RATE_LIMIT_STORM, acronym, server.name, storms
            )
            merged = merge_windows(
                np.concatenate([outages[0::2], storms[0::2]]),
                np.concatenate(
                    [outages[1::2] - outages[0::2],
                     storms[1::2] - storms[0::2]]
                ),
            )
            if merged.size:
                server_down[server.name] = merged

    # Interfaces in (IXP, address) order: each IXP's rows are ascending.
    table = world.table
    for entry in exchanges:
        acronym = entry.acronym
        rows = slice(entry.start, entry.stop)
        dark_candidates = (table.is_remote[rows] & table.on_lan[rows]).tolist()
        base_rtts = table.base_rtt_ms[rows].tolist()
        for j, addr_value in enumerate(table.address[rows].tolist()):
            flap_edges = draw_windows(
                child_rng(seed, "faults", PORT_FLAP, acronym, addr_value),
                config.flap_rate, config.flap_mean_s, span,
                config.intensity, config.duration_scale,
            )
            if flap_edges.size:
                flaps.setdefault(acronym, {})[addr_value] = flap_edges
                events += _edge_events(
                    PORT_FLAP, acronym, str(IPv4Address(addr_value)),
                    flap_edges,
                )
            if dark_candidates[j]:
                dark_edges = draw_windows(
                    child_rng(seed, "faults", PSEUDOWIRE_DARK, acronym,
                              addr_value),
                    config.dark_rate, config.dark_mean_s, span,
                    config.intensity, config.duration_scale,
                )
                if dark_edges.size:
                    extra_ms = (
                        base_rtts[j] * (config.fallback_rtt_factor - 1.0)
                        + config.fallback_extra_ms
                    )
                    failover_windows[addr_value] = (dark_edges, extra_ms)
                    events += _edge_events(
                        PSEUDOWIRE_DARK, acronym, str(IPv4Address(addr_value)),
                        dark_edges,
                    )

    events.sort(key=lambda e: (e.start_s, e.kind, e.ixp, e.target))
    return FaultSchedule(
        span_s=span,
        config=config,
        failover=FailoverState(windows=failover_windows),
        flaps=flaps,
        loss=loss,
        server_down=server_down,
        events=tuple(events),
    )
