"""Deterministic bounded retry with exponential backoff.

A looking-glass outage or rate-limit storm makes a query slot fail; the
client retries with exponential backoff until an attempt lands outside
the outage or the attempt budget is exhausted.  The planner is *pure*:
given the planned query times, an availability predicate and one
dedicated RNG stream it computes every slot's effective send time,
attempt count and served/dropped verdict in a single vectorized pass —
so the probe engine and its per-probe reference, which share the stream
and call it with identical inputs, produce bit-identical retry plans.

The jitter draw has a *fixed shape* — ``(slots, max_attempts - 1)``
uniforms regardless of how many slots actually retry — which is what
makes the plan independent of the outage pattern's sparsity and therefore
reproducible across engines and resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.units import MINUTE


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded exponential backoff for one query slot.

    ``timeout_s`` is how long an unanswered attempt blocks before the
    client declares it failed (modeled, not slept).  The worst-case
    cumulative backoff (every attempt used, maximum jitter) must stay
    within one minute so retried queries never spill into the next
    per-server rate-limit slot — the politeness ledger validates the
    *planned* schedule, and this bound keeps the effective one inside it.
    """

    max_attempts: int = 4
    base_backoff_s: float = 2.0
    backoff_multiplier: float = 2.0
    max_jitter_s: float = 1.0
    timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_backoff_s < 0 or self.max_jitter_s < 0:
            raise ConfigurationError("backoff and jitter cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.worst_case_delay_s() > MINUTE:
            raise ConfigurationError(
                "worst-case cumulative backoff exceeds the one-minute "
                "query slot; lower max_attempts or the backoff terms"
            )

    def backoffs_s(self) -> np.ndarray:
        """Deterministic backoff before each retry (len max_attempts-1)."""
        exponents = np.arange(self.max_attempts - 1, dtype=float)
        return self.base_backoff_s * self.backoff_multiplier ** exponents

    def worst_case_delay_s(self) -> float:
        """Latest possible offset of the final attempt from the slot."""
        retries = self.max_attempts - 1
        return float(self.backoffs_s().sum()) + retries * self.max_jitter_s


@dataclass(frozen=True, slots=True)
class RetryPlan:
    """The planner's verdict for every query slot, in slot order."""

    effective_s: np.ndarray  # float[n]: send time of the winning attempt
    served: np.ndarray       # bool[n]: False when every attempt hit an outage
    attempts: np.ndarray     # int[n] >= 1: attempts consumed (incl. success)

    @property
    def retries(self) -> int:
        """Total extra attempts beyond the first, across all slots."""
        return int((self.attempts - 1).sum())

    @property
    def dropped(self) -> int:
        """Slots whose every attempt landed inside an outage."""
        return int((~self.served).sum())


def plan_retries(
    times_s: np.ndarray,
    unavailable: Callable[[np.ndarray], np.ndarray],
    policy: RetryPolicy,
    rng: np.random.Generator,
) -> RetryPlan:
    """Plan every slot's retry chain against an availability predicate.

    ``times_s`` holds the planned query times (1-D, slot order);
    ``unavailable(times)`` returns a same-shaped boolean mask that is True
    when the server cannot answer at those instants.  The first attempt
    fires at the planned time; each retry waits the policy's exponential
    backoff plus a jittered delay drawn from ``rng``.  A slot whose every
    attempt is unavailable is *dropped* (served=False); its effective time
    is the final attempt's, which is when the client gave up.
    """
    times = np.asarray(times_s, dtype=float).ravel()
    n = times.size
    retries = policy.max_attempts - 1
    # Fixed-shape draw: exactly (n, retries) uniforms regardless of how
    # many slots retry, so the plan is a pure function of (times, stream).
    jitter = (
        rng.random((n, retries)) * policy.max_jitter_s
        if retries
        else np.zeros((n, 0))
    )
    delays = policy.backoffs_s()[None, :] + jitter
    offsets = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(delays, axis=1)], axis=1
    )
    attempt_times = times[:, None] + offsets
    up = ~np.asarray(unavailable(attempt_times), dtype=bool)
    first_up = np.argmax(up, axis=1)
    served = up.any(axis=1)
    attempts = np.where(served, first_up + 1, policy.max_attempts)
    winner = np.where(served, first_up, policy.max_attempts - 1)
    effective = attempt_times[np.arange(n), winner]
    return RetryPlan(
        effective_s=effective,
        served=served,
        attempts=attempts.astype(np.int64),
    )
