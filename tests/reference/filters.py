"""The seed implementation's filter pipeline and measurement type.

:class:`ReferenceFilterPipeline` applies the six filters of Section 3.1
one interface at a time, each stage a method that returns the (possibly
trimmed) measurement or None; :class:`ReferenceMeasurement` holds each
operator's replies as a list of :class:`~repro.net.icmp.EchoReply` (or a
:class:`~repro.net.icmp.ReplyBatch`).  The product computes the same
filters as segment reductions over a measurement table
(:mod:`repro.core.detection.filters`); ``tests/test_detection_filters.py``
holds the two to identical reports, and ``tests/test_reference_digests.py``
pins this oracle's reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.detection.filters import FILTER_ORDER, FilterConfig
from repro.core.detection.measurements import InterfaceMeasurement
from repro.errors import ConfigurationError
from repro.net.addr import IPv4Address
from repro.net.icmp import EchoReply, ReplyBatch
from repro.types import ASN

def _rtt_array(replies: list[EchoReply] | ReplyBatch) -> np.ndarray:
    if isinstance(replies, ReplyBatch):
        return replies.rtt_ms
    return np.fromiter((r.rtt_ms for r in replies), dtype=float, count=len(replies))


def _ttl_array(replies: list[EchoReply] | ReplyBatch) -> np.ndarray:
    if isinstance(replies, ReplyBatch):
        return replies.ttl
    return np.fromiter((r.ttl for r in replies), dtype=np.int64, count=len(replies))


@dataclass(slots=True)
class ReferenceMeasurement:
    """Everything the campaign collected about one candidate interface."""

    ixp_acronym: str
    address: IPv4Address
    replies_by_operator: dict[str, list[EchoReply] | ReplyBatch] = field(
        default_factory=dict
    )
    asn_at_start: ASN | None = None
    asn_at_end: ASN | None = None
    identification_source: str | None = None

    def add_batch(self, operator: str, batch: ReplyBatch) -> None:
        """Attach one sweep's replies from ``operator`` (concatenating)."""
        existing = self.replies_by_operator.get(operator)
        if existing is None:
            self.replies_by_operator[operator] = batch
        elif isinstance(existing, ReplyBatch):
            self.replies_by_operator[operator] = existing.concat(batch)
        else:
            existing.extend(batch.to_replies(str(self.address)))

    def with_replies(
        self, replies_by_operator: dict[str, list[EchoReply] | ReplyBatch]
    ) -> "ReferenceMeasurement":
        """A sibling measurement holding different evidence (same identity).

        Used by non-mutating filter stages that trim reply sets: the
        original measurement keeps its raw evidence untouched.
        """
        return ReferenceMeasurement(
            ixp_acronym=self.ixp_acronym,
            address=self.address,
            replies_by_operator=replies_by_operator,
            asn_at_start=self.asn_at_start,
            asn_at_end=self.asn_at_end,
            identification_source=self.identification_source,
        )

    def all_replies(self) -> list[EchoReply]:
        """Replies across all LG operators, in probe order (materialized)."""
        merged: list[EchoReply] = []
        for operator in sorted(self.replies_by_operator):
            replies = self.replies_by_operator[operator]
            if isinstance(replies, ReplyBatch):
                merged.extend(replies.to_replies(str(self.address)))
            else:
                merged.extend(replies)
        return merged

    def reply_count(self, operator: str | None = None) -> int:
        """Total replies (optionally for one operator)."""
        if operator is not None:
            return len(self.replies_by_operator.get(operator, ()))
        return sum(len(v) for v in self.replies_by_operator.values())

    def operators(self) -> list[str]:
        """LG operators that probed this interface, sorted."""
        return sorted(self.replies_by_operator)

    def rtts(self, operator: str | None = None) -> np.ndarray:
        """Observed RTTs as an array (optionally for one operator)."""
        if operator is not None:
            replies = self.replies_by_operator.get(operator)
            if replies is None:
                return np.zeros(0)
            return _rtt_array(replies)
        arrays = [
            _rtt_array(self.replies_by_operator[op])
            for op in sorted(self.replies_by_operator)
        ]
        if not arrays:
            return np.zeros(0)
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def ttls(self, operator: str | None = None) -> np.ndarray:
        """Received TTLs as an array (optionally for one operator)."""
        if operator is not None:
            replies = self.replies_by_operator.get(operator)
            if replies is None:
                return np.zeros(0, dtype=np.int64)
            return _ttl_array(replies)
        arrays = [
            _ttl_array(self.replies_by_operator[op])
            for op in sorted(self.replies_by_operator)
        ]
        if not arrays:
            return np.zeros(0, dtype=np.int64)
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def min_rtt_ms(self, operator: str | None = None) -> float | None:
        """Minimum observed RTT (optionally per operator); None if no replies."""
        rtts = self.rtts(operator)
        if rtts.size == 0:
            return None
        return float(rtts.min())

    def distinct_ttls(self) -> set[int]:
        """The set of TTL values seen across all replies."""
        return {int(t) for t in np.unique(self.ttls())}


def reference_measurement(m: InterfaceMeasurement) -> ReferenceMeasurement:
    """A product measurement with its replies materialized as lists."""
    return ReferenceMeasurement(
        ixp_acronym=m.ixp_acronym,
        address=m.address,
        replies_by_operator={
            op: batch.to_replies(str(m.address))
            for op, batch in m.replies_by_operator.items()
        },
        asn_at_start=m.asn_at_start,
        asn_at_end=m.asn_at_end,
        identification_source=m.identification_source,
    )


def product_measurement(m: ReferenceMeasurement) -> InterfaceMeasurement:
    """A reference measurement with its replies packed as batches."""
    return InterfaceMeasurement(
        ixp_acronym=m.ixp_acronym,
        address=m.address,
        replies_by_operator={
            op: replies if isinstance(replies, ReplyBatch)
            else ReplyBatch.from_replies(replies)
            for op, replies in m.replies_by_operator.items()
        },
        asn_at_start=m.asn_at_start,
        asn_at_end=m.asn_at_end,
        identification_source=m.identification_source,
    )


@dataclass
class ReferenceReport:
    """Outcome of the reference pipeline: survivors as measurements."""

    passed: list[ReferenceMeasurement] = field(default_factory=list)
    discard_counts: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in FILTER_ORDER}
    )
    discard_reason: dict[tuple[str, int], str] = field(default_factory=dict)

    def total_discarded(self) -> int:
        return sum(self.discard_counts.values())


class ReferenceFilterPipeline:
    """The six filters as per-interface stage methods."""

    def __init__(self, config: FilterConfig | None = None) -> None:
        self.config = config or FilterConfig()
        self._accepted_ttls = np.array(
            sorted(self.config.accepted_ttls), dtype=np.int64
        )

    # Individual filters.  Each returns None to discard, or the (possibly
    # trimmed) measurement to keep.

    def sample_size(self, m: ReferenceMeasurement) -> ReferenceMeasurement | None:
        """Require >= 8 replies from *each* probing LG server."""
        for operator in m.operators():
            if m.reply_count(operator) < self.config.min_replies_per_lg:
                return None
        if not m.operators():
            return None
        return m

    def ttl_switch(self, m: ReferenceMeasurement) -> ReferenceMeasurement | None:
        """Discard interfaces whose reply TTL changes during the campaign."""
        ttls = m.ttls()
        if ttls.size and bool((ttls != ttls[0]).any()):
            return None
        return m

    def _accepted_mask(self, ttls: np.ndarray) -> np.ndarray:
        # accepted_ttls is tiny (two values in the paper's config): an OR
        # of equality masks beats np.isin's sort-based machinery ~4x here.
        mask = ttls == self._accepted_ttls[0]
        for value in self._accepted_ttls[1:]:
            mask |= ttls == value
        return mask

    def ttl_match(self, m: ReferenceMeasurement) -> ReferenceMeasurement | None:
        """Drop replies whose TTL is not an expected maximum (64 or 255).

        If dropping leaves any probing LG below the sample-size floor the
        interface is discarded here (its usable evidence is gone).  When
        trimming removes anything, a *new* measurement is returned; the
        input is never modified.
        """
        trimmed: dict[str, list[EchoReply] | ReplyBatch] = {}
        changed = False
        for operator, replies in m.replies_by_operator.items():
            if isinstance(replies, ReplyBatch):
                keep = self._accepted_mask(replies.ttl)
                kept_count = int(keep.sum())
                if kept_count < self.config.min_replies_per_lg:
                    return None
                if kept_count == len(replies):
                    trimmed[operator] = replies
                else:
                    trimmed[operator] = replies.select(keep)
                    changed = True
            else:
                kept = [
                    r for r in replies if r.ttl in self.config.accepted_ttls
                ]
                if len(kept) < self.config.min_replies_per_lg:
                    return None
                if len(kept) == len(replies):
                    trimmed[operator] = replies
                else:
                    trimmed[operator] = kept
                    changed = True
        if not changed:
            return m
        return m.with_replies(trimmed)

    def rtt_consistent(self, m: ReferenceMeasurement) -> ReferenceMeasurement | None:
        """Require >= 4 replies within max(5 ms, 10%) of the minimum RTT."""
        rtts = m.rtts()
        if rtts.size == 0:
            return None
        floor = float(rtts.min())
        ceiling = floor + self.config.envelope_ms(floor)
        if int((rtts <= ceiling).sum()) < 4:
            return None
        return m

    def lg_consistent(self, m: ReferenceMeasurement) -> ReferenceMeasurement | None:
        """For dual-LG IXPs, require the two per-LG minima to agree."""
        minima = [
            m.min_rtt_ms(operator)
            for operator in m.operators()
            if m.reply_count(operator) > 0
        ]
        if len(minima) < 2:
            return m
        low, high = min(minima), max(minima)  # type: ignore[type-var]
        if high > low + self.config.envelope_ms(low):
            return None
        return m

    def asn_change(self, m: ReferenceMeasurement) -> ReferenceMeasurement | None:
        """Discard interfaces whose identified ASN changed mid-campaign."""
        if (
            m.asn_at_start is not None
            and m.asn_at_end is not None
            and m.asn_at_start != m.asn_at_end
        ):
            return None
        return m

    # Pipeline.

    def stages(self) -> tuple[tuple[str, object], ...]:
        """(name, callable) pairs in the paper's order."""
        return (
            ("sample-size", self.sample_size),
            ("ttl-switch", self.ttl_switch),
            ("ttl-match", self.ttl_match),
            ("rtt-consistent", self.rtt_consistent),
            ("lg-consistent", self.lg_consistent),
            ("asn-change", self.asn_change),
        )

    def run(
        self, measurements: list[ReferenceMeasurement], skip: str | None = None
    ) -> ReferenceReport:
        """Apply the stages in the paper's order, one interface at a time;
        ``skip`` omits one named stage."""
        if skip is not None and skip not in FILTER_ORDER:
            raise ConfigurationError(f"unknown filter {skip!r}")
        report = ReferenceReport()
        stages = self.stages()
        for measurement in measurements:
            key = (measurement.ixp_acronym, measurement.address.value)
            survivor: ReferenceMeasurement | None = measurement
            for name, stage in stages:
                if name == skip:
                    continue
                survivor = stage(survivor)  # type: ignore[operator]
                if survivor is None:
                    report.discard_counts[name] += 1
                    report.discard_reason[key] = name
                    break
            if survivor is not None:
                report.passed.append(survivor)
        return report

