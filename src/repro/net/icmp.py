"""ICMP echo replies: what a ping against a peering-LAN interface yields.

The paper's method sends echo requests from a looking glass inside the IXP
to a member interface in the IXP subnet and records two observables per
reply: the round-trip time and the received TTL.  The probe engine
(:mod:`repro.lg.batch`) returns them as :class:`ReplyBatch` arrays, so
every filter in Section 3.1 has a faithful signal to work on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class EchoReply:
    """A single ping reply as seen by the probing vantage point."""

    rtt_ms: float
    ttl: int
    target_address: str
    sent_at_s: float


@dataclass(eq=False, slots=True)
class ReplyBatch:
    """A struct-of-arrays reply set: one row per *answered* probe.

    The batch probe engine produces these instead of ~300k individual
    :class:`EchoReply` objects.  All three arrays share one length; row ``i``
    holds the RTT, received TTL, and send time of the ``i``-th answered
    probe, in probe order.
    """

    rtt_ms: np.ndarray
    ttl: np.ndarray
    sent_at_s: np.ndarray

    def __len__(self) -> int:
        return int(self.rtt_ms.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplyBatch):
            return NotImplemented
        return (
            np.array_equal(self.rtt_ms, other.rtt_ms)
            and np.array_equal(self.ttl, other.ttl)
            and np.array_equal(self.sent_at_s, other.sent_at_s)
        )

    def select(self, mask: np.ndarray) -> "ReplyBatch":
        """A new batch keeping only the rows where ``mask`` is True."""
        return ReplyBatch(
            rtt_ms=self.rtt_ms[mask],
            ttl=self.ttl[mask],
            sent_at_s=self.sent_at_s[mask],
        )

    def concat(self, other: "ReplyBatch") -> "ReplyBatch":
        """This batch followed by ``other`` (row-wise concatenation)."""
        return ReplyBatch(
            rtt_ms=np.concatenate([self.rtt_ms, other.rtt_ms]),
            ttl=np.concatenate([self.ttl, other.ttl]),
            sent_at_s=np.concatenate([self.sent_at_s, other.sent_at_s]),
        )

    def to_replies(self, target_address: str) -> list[EchoReply]:
        """Materialize per-reply objects (compat / reference path)."""
        return [
            EchoReply(
                rtt_ms=float(self.rtt_ms[i]),
                ttl=int(self.ttl[i]),
                target_address=target_address,
                sent_at_s=float(self.sent_at_s[i]),
            )
            for i in range(len(self))
        ]
