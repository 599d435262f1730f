"""The measurement client that drives LG servers politely.

Section 3.1 ("Measurement overhead"): at most one HTML query per minute per
LG server, measurements spread over four months.  The client keeps the
campaign's rate-limit ledger against *simulated* time: each sweep's whole
query schedule is validated before a probe is realized, so a
mis-scheduled campaign fails loudly instead of silently hammering a
server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RateLimitError
from repro.units import MINUTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.retry import RetryPlan


@dataclass
class LookingGlassClient:
    """The per-server rate-limit ledger and retry tallies of a campaign."""

    min_interval_s: float = MINUTE
    _last_query_at: dict[str, float] = field(default_factory=dict)
    _query_counts: dict[str, int] = field(default_factory=dict)
    _retry_counts: dict[str, int] = field(default_factory=dict)
    _dropped_counts: dict[str, int] = field(default_factory=dict)

    def record_sweep(self, server_name: str, times_s: np.ndarray) -> None:
        """Enter a vectorized sweep's query times into the rate-limit ledger.

        The probe engine issues a whole campaign's queries to one server
        in a single call, so the ledger validates the entire schedule at
        once: the sorted query times must keep the per-server minimum
        interval among themselves *and* against any previously recorded
        query.  A violation anywhere in the schedule fails the sweep before
        a single simulated probe is sent.
        """
        times = np.sort(np.asarray(times_s, dtype=float).ravel())
        if times.size == 0:
            return
        tolerance = self.min_interval_s - 1e-3
        gaps = np.diff(times)
        if gaps.size and float(gaps.min()) < tolerance:
            at = int(np.argmin(gaps))
            raise RateLimitError(
                f"{server_name}: queries at t={times[at]:.0f}s and "
                f"t={times[at + 1]:.0f}s violate the "
                f"{self.min_interval_s:.0f}s per-server interval"
            )
        last = self._last_query_at.get(server_name)
        if last is not None and float(times[0]) - last < tolerance:
            raise RateLimitError(
                f"{server_name}: query at t={times[0]:.0f}s violates the "
                f"{self.min_interval_s:.0f}s per-server interval "
                f"(previous at t={last:.0f}s)"
            )
        self._last_query_at[server_name] = float(times[-1])
        self._query_counts[server_name] = (
            self._query_counts.get(server_name, 0) + int(times.size)
        )

    def record_retries(self, server_name: str, plan: "RetryPlan") -> None:
        """Add one retry plan's tallies to the per-server counters.

        The campaign plans a whole sweep's retries in one call.
        """
        self._retry_counts[server_name] = (
            self._retry_counts.get(server_name, 0) + plan.retries
        )
        self._dropped_counts[server_name] = (
            self._dropped_counts.get(server_name, 0) + plan.dropped
        )

    def queries_sent(self, server_name: str) -> int:
        """Number of queries submitted to one server so far."""
        return self._query_counts.get(server_name, 0)

    def retries(self, server_name: str) -> int:
        """Extra query attempts (beyond the first) against one server."""
        return self._retry_counts.get(server_name, 0)

    def queries_dropped(self, server_name: str) -> int:
        """Query slots abandoned after exhausting the retry budget."""
        return self._dropped_counts.get(server_name, 0)
