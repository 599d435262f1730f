"""Raw measurement containers produced by the probing campaign.

A campaign's output is one :class:`MeasurementTable` per trial:

* one row per measured interface, in collection order (IXPs by acronym,
  addresses ascending): ``ixp`` (index into ``ixp_names``), ``address``
  (IPv4 value), ``asn_start`` / ``asn_end`` (the identified ASN at either
  campaign endpoint, -1 when unidentified) and ``source`` (index into
  :data:`SOURCE_NAMES`);
* one *segment* per (row, LG operator) pair, sorted by row and then by
  operator name: ``seg_row``, ``seg_operator`` (index into ``operators``)
  and ``seg_offsets``, the segment's slice of the flat reply arrays;
* the flat replies ``rtt_ms``, ``ttl`` and ``sent_at_s``, in probe order
  within a segment.

An operator that probed an interface but got nothing back still has its
(empty) segment, so the sample-size filter sees every probing operator.
The filters and the result aggregation are reductions over these arrays.
As a sequence, the table yields one :class:`InterfaceMeasurement` row view
per interface, whose reply batches are views into the flat arrays; a list
of hand-built measurements packs into a table with
:meth:`MeasurementTable.from_measurements`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.addr import IPv4Address
from repro.net.icmp import EchoReply, ReplyBatch
from repro.types import ASN

#: Identification sources by table code; code 0 is "unidentified".
SOURCE_NAMES: tuple[str | None, ...] = (None, "peeringdb", "website", "rdns")


@dataclass(slots=True)
class InterfaceMeasurement:
    """Everything the campaign collected about one candidate interface."""

    ixp_acronym: str
    address: IPv4Address
    replies_by_operator: dict[str, ReplyBatch] = field(default_factory=dict)
    asn_at_start: ASN | None = None
    asn_at_end: ASN | None = None
    identification_source: str | None = None

    def all_replies(self) -> list[EchoReply]:
        """Replies across all LG operators, in probe order (materialized)."""
        merged: list[EchoReply] = []
        for operator in sorted(self.replies_by_operator):
            merged.extend(
                self.replies_by_operator[operator].to_replies(str(self.address))
            )
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
        return self._column("rtt_ms", operator, float)

    def ttls(self, operator: str | None = None) -> np.ndarray:
        """Received TTLs as an array (optionally for one operator)."""
        return self._column("ttl", operator, np.int64)

    def _column(self, name: str, operator: str | None, dtype) -> np.ndarray:
        if operator is not None:
            replies = self.replies_by_operator.get(operator)
            if replies is None:
                return np.zeros(0, dtype=dtype)
            return getattr(replies, name)
        arrays = [
            getattr(self.replies_by_operator[op], name)
            for op in sorted(self.replies_by_operator)
        ]
        if not arrays:
            return np.zeros(0, dtype=dtype)
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


def _asn_or_none(value: int) -> ASN | None:
    return None if value < 0 else ASN(value)


@dataclass(eq=False, slots=True)
class MeasurementTable:
    """One trial's measurements as columns (see the module docstring)."""

    ixp_names: tuple[str, ...]
    ixp: np.ndarray
    address: np.ndarray
    asn_start: np.ndarray
    asn_end: np.ndarray
    source: np.ndarray
    operators: tuple[str, ...]
    seg_row: np.ndarray
    seg_operator: np.ndarray
    seg_offsets: np.ndarray  # len(segments) + 1
    rtt_ms: np.ndarray
    ttl: np.ndarray
    sent_at_s: np.ndarray

    def __len__(self) -> int:
        return len(self.address)

    def __getitem__(self, i: int) -> InterfaceMeasurement:
        return self.row(i)

    def __iter__(self):
        return (self.row(i) for i in range(len(self)))

    @property
    def seg_len(self) -> np.ndarray:
        """Replies per segment."""
        return np.diff(self.seg_offsets)

    def segments_of(self, i: int) -> range:
        """The segment indices of row ``i``."""
        lo, hi = np.searchsorted(self.seg_row, (i, i + 1))
        return range(int(lo), int(hi))

    def row(
        self, i: int, kept: np.ndarray | None = None
    ) -> InterfaceMeasurement:
        """Row ``i`` as a measurement; ``kept`` masks the flat replies."""
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i %= len(self)
        replies: dict[str, ReplyBatch] = {}
        for seg in self.segments_of(i):
            lo, hi = int(self.seg_offsets[seg]), int(self.seg_offsets[seg + 1])
            batch = ReplyBatch(
                rtt_ms=self.rtt_ms[lo:hi],
                ttl=self.ttl[lo:hi],
                sent_at_s=self.sent_at_s[lo:hi],
            )
            if kept is not None and not kept[lo:hi].all():
                batch = batch.select(kept[lo:hi])
            replies[self.operators[int(self.seg_operator[seg])]] = batch
        return InterfaceMeasurement(
            ixp_acronym=self.ixp_names[int(self.ixp[i])],
            address=IPv4Address(int(self.address[i])),
            replies_by_operator=replies,
            asn_at_start=_asn_or_none(int(self.asn_start[i])),
            asn_at_end=_asn_or_none(int(self.asn_end[i])),
            identification_source=SOURCE_NAMES[int(self.source[i])],
        )

    @classmethod
    def from_measurements(
        cls, measurements: "list[InterfaceMeasurement]"
    ) -> "MeasurementTable":
        """Pack hand-built measurements (their order kept)."""
        ixp_names = tuple(dict.fromkeys(m.ixp_acronym for m in measurements))
        ixp_code = {name: i for i, name in enumerate(ixp_names)}
        operators = tuple(sorted({
            op for m in measurements for op in m.replies_by_operator
        }))
        op_code = {op: i for i, op in enumerate(operators)}
        seg_row: list[int] = []
        seg_operator: list[int] = []
        batches: list[ReplyBatch] = []
        for i, m in enumerate(measurements):
            for op in sorted(m.replies_by_operator):
                seg_row.append(i)
                seg_operator.append(op_code[op])
                batches.append(m.replies_by_operator[op])
        lengths = [len(b) for b in batches]
        offsets = np.zeros(len(batches) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])

        def flat(name: str, dtype) -> np.ndarray:
            if not batches:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(
                [np.asarray(getattr(b, name), dtype=dtype) for b in batches]
            )

        def asn(value: ASN | None) -> int:
            return -1 if value is None else int(value)

        return cls(
            ixp_names=ixp_names,
            ixp=np.array(
                [ixp_code[m.ixp_acronym] for m in measurements], dtype=np.int64
            ),
            address=np.array(
                [m.address.value for m in measurements], dtype=np.int64
            ),
            asn_start=np.array(
                [asn(m.asn_at_start) for m in measurements], dtype=np.int64
            ),
            asn_end=np.array(
                [asn(m.asn_at_end) for m in measurements], dtype=np.int64
            ),
            source=np.array(
                [SOURCE_NAMES.index(m.identification_source)
                 for m in measurements],
                dtype=np.int64,
            ),
            operators=operators,
            seg_row=np.array(seg_row, dtype=np.int64),
            seg_operator=np.array(seg_operator, dtype=np.int64),
            seg_offsets=offsets,
            rtt_ms=flat("rtt_ms", float),
            ttl=flat("ttl", np.int64),
            sent_at_s=flat("sent_at_s", float),
        )
