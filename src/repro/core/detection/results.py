"""Aggregation of campaign output into the paper's reported structures.

:class:`CampaignResult` is the single object every Section 3 figure reads
from:

* Figure 2 — ``min_rtts()`` (CDF of analyzed-interface minimum RTTs);
* Figure 3 — ``band_counts_by_ixp()``;
* Figure 4a — ``ixp_count_distribution()`` for identified and for
  remotely peering networks;
* Figure 4b — ``band_fractions_by_ixp_count()``;
* Table 1's last column — ``analyzed_count_by_ixp()``;
* the filter paragraph — ``discard_counts``.

A result holds its analyzed interfaces as :class:`AnalyzedColumns`
(IXP, address, minimum RTT, per-operator minima, ASN, identification
source, reply count), which :func:`build_result` fills by gathering the
filter pass's reductions.  The per-interface
:class:`AnalyzedInterface` records (``analyzed``) and the per-network
grouping behind the Figure 4 views are built on first access; a result
built from a list of records packs them into the same columns.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.detection.classify import (
    BAND_LABELS,
    RTT_BANDS,
    band_label,
    is_remote,
)
from repro.core.detection.filters import FilterReport
from repro.core.detection.measurements import SOURCE_NAMES, MeasurementTable
from repro.errors import AnalysisError
from repro.net.addr import IPv4Address
from repro.types import ASN


@dataclass(frozen=True, slots=True)
class AnalyzedInterface:
    """One interface that survived all six filters."""

    ixp_acronym: str
    address: IPv4Address
    min_rtt_ms: float
    per_operator_min_ms: tuple[tuple[str, float], ...]
    asn: ASN | None
    identification_source: str | None
    reply_count: int

    @property
    def band(self) -> str:
        """The Figure 3 RTT band of this interface."""
        return band_label(self.min_rtt_ms)

    def remote(self, threshold_ms: float) -> bool:
        """Remote/direct call at a given threshold."""
        return is_remote(self.min_rtt_ms, threshold_ms)


@dataclass(frozen=True, eq=False, slots=True)
class AnalyzedColumns:
    """Analyzed interfaces as columns, one row each.

    ``asn`` is -1 for an unidentified interface; ``source`` indexes
    :data:`~repro.core.detection.measurements.SOURCE_NAMES`;
    ``operator_min_ms[i, k]`` is the minimum RTT seen by ``operators[k]``
    (NaN when that operator has no reply).
    """

    ixp_names: tuple[str, ...]
    ixp: np.ndarray
    address: np.ndarray
    min_rtt_ms: np.ndarray
    asn: np.ndarray
    source: np.ndarray
    reply_count: np.ndarray
    operators: tuple[str, ...]
    operator_min_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.address)

    @classmethod
    def pack(cls, interfaces: list[AnalyzedInterface]) -> "AnalyzedColumns":
        """Columns of a list of records (their order kept)."""
        ixp_names = tuple(dict.fromkeys(i.ixp_acronym for i in interfaces))
        ixp_code = {name: k for k, name in enumerate(ixp_names)}
        operators = tuple(sorted({
            op for i in interfaces for op, _ in i.per_operator_min_ms
        }))
        op_code = {op: k for k, op in enumerate(operators)}
        operator_min = np.full((len(interfaces), len(operators)), np.nan)
        for row, iface in enumerate(interfaces):
            for op, value in iface.per_operator_min_ms:
                operator_min[row, op_code[op]] = value
        return cls(
            ixp_names=ixp_names,
            ixp=np.array(
                [ixp_code[i.ixp_acronym] for i in interfaces], dtype=np.int64
            ),
            address=np.array(
                [i.address.value for i in interfaces], dtype=np.int64
            ),
            min_rtt_ms=np.array(
                [i.min_rtt_ms for i in interfaces], dtype=float
            ),
            asn=np.array(
                [-1 if i.asn is None else int(i.asn) for i in interfaces],
                dtype=np.int64,
            ),
            source=np.array(
                [SOURCE_NAMES.index(i.identification_source)
                 for i in interfaces],
                dtype=np.int64,
            ),
            reply_count=np.array(
                [i.reply_count for i in interfaces], dtype=np.int64
            ),
            operators=operators,
            operator_min_ms=operator_min,
        )

    def records(self) -> list[AnalyzedInterface]:
        """One :class:`AnalyzedInterface` per row."""
        ixp = self.ixp.tolist()
        asn = self.asn.tolist()
        source = self.source.tolist()
        minima = self.operator_min_ms.tolist()
        return [
            AnalyzedInterface(
                ixp_acronym=self.ixp_names[ixp[i]],
                address=IPv4Address(address),
                min_rtt_ms=min_rtt,
                per_operator_min_ms=tuple(
                    (op, value)
                    for op, value in zip(self.operators, minima[i])
                    if value == value  # NaN: no reply from this operator
                ),
                asn=None if asn[i] < 0 else ASN(asn[i]),
                identification_source=SOURCE_NAMES[source[i]],
                reply_count=replies,
            )
            for i, (address, min_rtt, replies) in enumerate(zip(
                self.address.tolist(),
                self.min_rtt_ms.tolist(),
                self.reply_count.tolist(),
            ))
        ]


def band_codes(min_rtts: np.ndarray) -> np.ndarray:
    """Index into :data:`BAND_LABELS` of each minimum RTT."""
    if (min_rtts < 0).any():
        raise AnalysisError(f"negative RTT {min_rtts[min_rtts < 0][0]}")
    edges = np.array([low for _, low, _ in RTT_BANDS[1:]])
    return np.searchsorted(edges, min_rtts, side="right")


class CampaignResult:
    """Filtered, classified output of one measurement campaign."""

    def __init__(
        self,
        analyzed: list[AnalyzedInterface] | None = None,
        discard_counts: dict[str, int] | None = None,
        threshold_ms: float = 10.0,
        candidate_count: int = 0,
        *,
        columns: AnalyzedColumns | None = None,
    ) -> None:
        if columns is None:
            analyzed = list(analyzed or [])
            columns = AnalyzedColumns.pack(analyzed)
        self.columns = columns
        self.discard_counts = dict(discard_counts or {})
        self.threshold_ms = threshold_ms
        self.candidate_count = candidate_count
        self._analyzed = analyzed
        self._by_network: dict[ASN, list[AnalyzedInterface]] | None = None

    @property
    def analyzed(self) -> list[AnalyzedInterface]:
        """The analyzed interfaces as records, in result order."""
        if self._analyzed is None:
            self._analyzed = self.columns.records()
        return self._analyzed

    def _networks(self) -> dict[ASN, list[AnalyzedInterface]]:
        if self._by_network is None:
            grouped: dict[ASN, list[AnalyzedInterface]] = defaultdict(list)
            for iface in self.analyzed:
                if iface.asn is not None:
                    grouped[iface.asn].append(iface)
            self._by_network = dict(grouped)
        return self._by_network

    def _remote_mask(self) -> np.ndarray:
        rtts = self.columns.min_rtt_ms
        if (rtts < 0).any():
            raise AnalysisError(f"negative RTT {rtts[rtts < 0][0]}")
        return rtts >= self.threshold_ms

    def _ixps_in_order(self, mask: np.ndarray | None = None) -> list[int]:
        """IXP codes present (under ``mask``), in first-seen row order."""
        codes = self.columns.ixp if mask is None else self.columns.ixp[mask]
        unique, first = np.unique(codes, return_index=True)
        return unique[np.argsort(first)].tolist()

    # -- interface-level views ----------------------------------------------------

    def analyzed_count(self) -> int:
        """Total analyzed interfaces (paper: 4,451)."""
        return len(self.columns)

    def analyzed_count_by_ixp(self) -> dict[str, int]:
        """Table 1's "number of analyzed interfaces" column."""
        counts = np.bincount(
            self.columns.ixp, minlength=len(self.columns.ixp_names)
        )
        return {
            self.columns.ixp_names[code]: int(counts[code])
            for code in self._ixps_in_order()
        }

    def min_rtts(self) -> np.ndarray:
        """Minimum RTTs of all analyzed interfaces (Figure 2's sample)."""
        return self.columns.min_rtt_ms.copy()

    def band_counts_by_ixp(self) -> dict[str, dict[str, int]]:
        """Figure 3: per-IXP interface counts in the four RTT bands."""
        bands = band_codes(self.columns.min_rtt_ms)
        table = np.zeros((len(self.columns.ixp_names), len(BAND_LABELS)), int)
        np.add.at(table, (self.columns.ixp, bands), 1)
        return {
            self.columns.ixp_names[code]: dict(
                zip(BAND_LABELS, table[code].tolist())
            )
            for code in self._ixps_in_order()
        }

    def remote_interfaces(self) -> list[AnalyzedInterface]:
        """Interfaces at or above the remoteness threshold."""
        analyzed = self.analyzed
        return [analyzed[i] for i in np.flatnonzero(self._remote_mask())]

    def ixps_with_remote_peering(self) -> list[str]:
        """IXPs where at least one remote interface was detected."""
        return sorted(
            self.columns.ixp_names[code]
            for code in self._ixps_in_order(self._remote_mask())
        )

    def studied_ixps(self) -> list[str]:
        """All IXPs contributing analyzed interfaces."""
        return sorted(
            self.columns.ixp_names[code] for code in self._ixps_in_order()
        )

    def remote_spread_fraction(self) -> float:
        """Fraction of studied IXPs showing remote peering (paper: 91%)."""
        studied = self.studied_ixps()
        if not studied:
            raise AnalysisError("no analyzed interfaces")
        return len(self.ixps_with_remote_peering()) / len(studied)

    def remote_fraction_by_ixp(self) -> dict[str, float]:
        """Per studied IXP, the fraction of analyzed interfaces called
        remote, in acronym order."""
        names = self.columns.ixp_names
        total = np.bincount(self.columns.ixp, minlength=len(names)).tolist()
        remote = np.bincount(
            self.columns.ixp, weights=self._remote_mask(), minlength=len(names)
        ).tolist()
        return {
            names[code]: int(remote[code]) / total[code]
            for code in sorted(self._ixps_in_order(), key=names.__getitem__)
        }

    # -- network-level views ---------------------------------------------------------

    def identified_interface_count(self) -> int:
        """Analyzed interfaces mapped to an ASN (paper: 3,242)."""
        return int((self.columns.asn >= 0).sum())

    def identified_networks(self) -> dict[ASN, list[AnalyzedInterface]]:
        """All identified networks and their analyzed interfaces."""
        return dict(self._networks())

    def remotely_peering_networks(self) -> dict[ASN, list[AnalyzedInterface]]:
        """Networks with >= 1 interface classified remote (paper: 285)."""
        return {
            asn: ifaces
            for asn, ifaces in self._networks().items()
            if any(i.remote(self.threshold_ms) for i in ifaces)
        }

    def ixp_count_of(self, asn: ASN) -> int:
        """Number of studied IXPs where the network has analyzed interfaces."""
        ifaces = self._networks().get(asn)
        if not ifaces:
            return 0
        return len({i.ixp_acronym for i in ifaces})

    def ixp_count_distribution(self, remote_only: bool = False) -> dict[int, int]:
        """Figure 4a: histogram of networks over their IXP counts."""
        networks = (
            self.remotely_peering_networks() if remote_only else self._networks()
        )
        histogram: Counter[int] = Counter()
        for asn in networks:
            histogram[self.ixp_count_of(asn)] += 1
        return dict(sorted(histogram.items()))

    def band_fractions_by_ixp_count(self) -> dict[int, dict[str, float]]:
        """Figure 4b: interface band mix of remote networks per IXP count."""
        remote_nets = self.remotely_peering_networks()
        counts: dict[int, Counter[str]] = defaultdict(Counter)
        for asn, ifaces in remote_nets.items():
            k = self.ixp_count_of(asn)
            for iface in ifaces:
                counts[k][iface.band] += 1
        fractions: dict[int, dict[str, float]] = {}
        for k, counter in sorted(counts.items()):
            total = sum(counter.values())
            fractions[k] = {
                label: counter.get(label, 0) / total for label in BAND_LABELS
            }
        return fractions


def build_result(
    measurements: MeasurementTable | list,
    report: FilterReport,
    threshold_ms: float,
) -> CampaignResult:
    """Assemble the result from the filter report's survivors.

    The minimum RTT, per-operator minima and reply count of each survivor
    are the filter pass's reductions over its kept replies, gathered for
    the passed rows.
    """
    passed = report.passed
    table = passed.table
    rows = passed.rows
    if np.isinf(passed.min_rtt_ms[rows]).any():  # pragma: no cover
        raise AnalysisError("a filtered interface has no replies")
    operators = table.operators
    operator_min = np.full((len(table), len(operators)), np.nan)
    has_kept = passed.seg_kept > 0
    operator_min[
        table.seg_row[has_kept], table.seg_operator[has_kept]
    ] = passed.seg_min_ms[has_kept]
    asn = np.where(
        table.asn_start[rows] >= 0, table.asn_start[rows], table.asn_end[rows]
    )
    return CampaignResult(
        discard_counts=dict(report.discard_counts),
        threshold_ms=threshold_ms,
        candidate_count=len(measurements),
        columns=AnalyzedColumns(
            ixp_names=table.ixp_names,
            ixp=table.ixp[rows],
            address=table.address[rows],
            min_rtt_ms=passed.min_rtt_ms[rows],
            asn=asn,
            source=table.source[rows],
            reply_count=passed.kept_count[rows].astype(np.int64),
            operators=operators,
            operator_min_ms=operator_min[rows],
        ),
    )
