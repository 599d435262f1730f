"""Deterministic fault injection: timed chaos for campaigns and billing.

The paper's risk argument is dynamic — a remote peer is one pseudowire
away from falling back to transit, and 95th-percentile billing is exactly
the metric that punishes transient failover bursts (Section 5); Nomikos
et al. further show real remote-peering inference must survive noisy,
flapping measurement conditions.  This package turns those dynamics into
reproducible inputs: a :class:`FaultSchedule` of timed, seeded events
(pseudowire dark windows, IXP port flaps, looking-glass outages,
rate-limit storms, probe-loss bursts) drawn from the repo's named child
RNG streams, plus the deterministic retry/backoff planner campaigns use
to complete under LG outages.

Fault streams (see :mod:`repro.rand` for the discipline):

* ``(seed, "faults", "pseudowire-dark", ixp, address)`` — dark windows
  per remote interface (transit-fallback RTT while dark);
* ``(seed, "faults", "port-flap", ixp, address)`` — hard-down windows
  per candidate interface;
* ``(seed, "faults", "lg-outage", server)`` / ``(seed, "faults",
  "rate-limit-storm", server)`` — unavailability windows per LG server;
* ``(seed, "faults", "probe-loss", ixp)`` — loss bursts per IXP LAN;
* ``(seed, "faults", "backoff", ixp, operator)`` — the retry planner's
  jitter draws (consumed identically by the probe engine and its
  per-probe reference, so retry counts agree bit-for-bit across them).
"""

from repro.faults.retry import RetryPlan, RetryPolicy, plan_retries
from repro.faults.schedule import (
    FAULT_KINDS,
    LG_OUTAGE,
    PORT_FLAP,
    PROBE_LOSS,
    PSEUDOWIRE_DARK,
    RATE_LIMIT_STORM,
    FaultConfig,
    FaultEvent,
    FaultSchedule,
    ProbeFaults,
    build_fault_schedule,
    draw_windows,
    merge_windows,
    window_mask,
    window_overlap_fractions,
)

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "FaultEvent",
    "FaultSchedule",
    "LG_OUTAGE",
    "PORT_FLAP",
    "PROBE_LOSS",
    "PSEUDOWIRE_DARK",
    "ProbeFaults",
    "RATE_LIMIT_STORM",
    "RetryPlan",
    "RetryPolicy",
    "build_fault_schedule",
    "draw_windows",
    "merge_windows",
    "plan_retries",
    "window_mask",
    "window_overlap_fractions",
]
