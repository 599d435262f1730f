"""ICMP echo semantics: what a ping against a peering-LAN interface yields.

The paper's method sends echo requests from a looking glass inside the IXP
to a member interface in the IXP subnet and records two observables per
reply: the round-trip time and the received TTL.  :func:`reply_for_probe`
produces exactly those observables given the device's behaviour and the
path's delay, so every filter in Section 3.1 has a faithful signal to work
on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.device import Device


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

    @classmethod
    def from_replies(cls, replies: "list[EchoReply]") -> "ReplyBatch":
        """Pack per-reply objects into a struct-of-arrays batch."""
        return cls(
            rtt_ms=np.array([r.rtt_ms for r in replies], dtype=float),
            ttl=np.array([r.ttl for r in replies], dtype=np.int64),
            sent_at_s=np.array([r.sent_at_s for r in replies], dtype=float),
        )


@dataclass(frozen=True, slots=True)
class PingObservation:
    """The outcome of one echo request: a reply or a timeout."""

    reply: EchoReply | None


def reply_for_probe(
    device: Device,
    target_address: str,
    path_rtt_ms: float,
    sent_at_s: float,
    rng: np.random.Generator,
    reply_extra_hops: int | None = None,
    respond_probability: float | None = None,
) -> PingObservation:
    """Simulate one echo request against ``device``.

    ``path_rtt_ms`` is the round-trip delay contributed by the network path
    (propagation + queueing), excluding the device's own processing time.
    ``reply_extra_hops`` overrides the device's default when the *request*
    itself took an indirect route (e.g. a stale registry address that lives
    behind a router outside the LAN).  ``respond_probability`` overrides
    the device's own when the probe path degrades it (e.g. a fault
    schedule's loss burst); the loss draw is consumed either way, so
    overriding never shifts later draws.
    """
    p = device.respond_probability if respond_probability is None else respond_probability
    if rng.random() > p:
        return PingObservation(reply=None)
    hops = device.reply_extra_hops if reply_extra_hops is None else reply_extra_hops
    ttl = device.ttl_init_at(sent_at_s) - hops
    if ttl <= 0:
        # Reply died in transit; observable only as a timeout.
        return PingObservation(reply=None)
    # Slow-path ICMP processing: exponential tail around the device mean.
    processing = float(rng.exponential(device.processing_ms)) if device.processing_ms else 0.0
    rtt = path_rtt_ms + processing
    reply = EchoReply(
        rtt_ms=rtt,
        ttl=ttl,
        target_address=target_address,
        sent_at_s=sent_at_s,
    )
    return PingObservation(reply=reply)
