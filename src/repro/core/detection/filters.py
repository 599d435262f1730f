"""The six conservative filters of Section 3.1, applied in the paper's order.

Order: sample-size, TTL-switch, TTL-match, RTT-consistent, LG-consistent,
ASN-change.  Each filter either passes an interface (TTL-match may trim
its reply set) or discards it, and the pipeline records exactly one
discard reason per interface — the first failing filter in the paper's
order — mirroring how the paper reports the 20 / 82 / 20 / 100 / 28 / 5
counts.

Every filter statistic is a segment reduction over a
:class:`~repro.core.detection.measurements.MeasurementTable`: per
(interface, operator) segment and per interface, with ``bincount`` and
``reduceat`` passes over the flat reply arrays.  The report's ``passed``
is a row selection of that table plus the TTL-match kept mask, so
nothing is copied and the input is never modified; the same raw table
can be re-filtered under many configurations (threshold and drop-one
sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.detection.measurements import (
    InterfaceMeasurement,
    MeasurementTable,
)
from repro.errors import ConfigurationError
from repro.net.device import TTL_LINUX, TTL_NETWORK_OS

#: Canonical filter order (Section 3.1, "Choice of IXPs" paragraph).
FILTER_ORDER = (
    "sample-size",
    "ttl-switch",
    "ttl-match",
    "rtt-consistent",
    "lg-consistent",
    "asn-change",
)


@dataclass(frozen=True, slots=True)
class FilterConfig:
    """Parameters of the filter pipeline, defaulting to the paper's values."""

    min_replies_per_lg: int = 8
    accepted_ttls: frozenset[int] = frozenset({TTL_LINUX, TTL_NETWORK_OS})
    consistency_abs_ms: float = 5.0
    consistency_frac: float = 0.10

    def __post_init__(self) -> None:
        if self.min_replies_per_lg <= 0:
            raise ConfigurationError("min_replies_per_lg must be positive")
        if self.consistency_abs_ms < 0 or self.consistency_frac < 0:
            raise ConfigurationError("consistency tolerances cannot be negative")
        if not self.accepted_ttls:
            raise ConfigurationError("need at least one accepted TTL")


@dataclass(eq=False, slots=True)
class PassedRows:
    """The interfaces that survived every filter, as a table selection.

    ``rows`` index ``table``; ``kept`` masks the table's flat replies
    (False for a reply TTL-match trimmed).  The per-interface and
    per-segment minima over kept replies are the ones the filters
    computed, so aggregation needs no second pass.  As a sequence it
    yields each survivor's trimmed :class:`InterfaceMeasurement`.
    """

    table: MeasurementTable
    rows: np.ndarray
    kept: np.ndarray
    #: Per table row / per table segment: minimum kept RTT (``inf`` when
    #: none) and kept reply count.
    min_rtt_ms: np.ndarray
    kept_count: np.ndarray
    seg_min_ms: np.ndarray
    seg_kept: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> InterfaceMeasurement:
        return self.table.row(int(self.rows[k]), self.kept)

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass
class FilterReport:
    """Outcome of running the pipeline over a set of measurements."""

    passed: PassedRows
    discard_counts: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in FILTER_ORDER}
    )
    discard_reason: dict[tuple[str, int], str] = field(default_factory=dict)

    def total_discarded(self) -> int:
        """Interfaces removed by any filter."""
        return sum(self.discard_counts.values())


class FilterPipeline:
    """Applies the six filters in order, trimming or discarding interfaces."""

    def __init__(self, config: FilterConfig | None = None) -> None:
        self.config = config or FilterConfig()
        self._accepted_ttls = np.array(
            sorted(self.config.accepted_ttls), dtype=np.int64
        )

    def _accepted_mask(self, ttls: np.ndarray) -> np.ndarray:
        # accepted_ttls is tiny (two values in the paper's config): an OR
        # of equality masks beats np.isin's sort-based machinery ~4x here.
        mask = ttls == self._accepted_ttls[0]
        for value in self._accepted_ttls[1:]:
            mask |= ttls == value
        return mask

    def run(
        self,
        measured: MeasurementTable | list[InterfaceMeasurement],
        skip: str | None = None,
    ) -> FilterReport:
        """Apply all six filters in the paper's order.

        ``measured`` is a campaign's table or a list of measurements
        (packed into a table first).  ``skip`` omits one named stage — the
        drop-one-filter ablation.  Each stage yields a per-interface
        failure flag; the first failing stage in the paper's order is
        charged.
        """
        if skip is not None and skip not in FILTER_ORDER:
            raise ConfigurationError(f"unknown filter {skip!r}")
        table = (
            measured if isinstance(measured, MeasurementTable)
            else MeasurementTable.from_measurements(list(measured))
        )
        config = self.config
        meas_count = len(table)
        meas_of_seg = table.seg_row
        seg_count = len(meas_of_seg)
        seg_len = table.seg_len
        seg_starts = table.seg_offsets[:-1]
        rtt, ttl = table.rtt_ms, table.ttl
        total = len(rtt)
        segs_per_meas = np.bincount(meas_of_seg, minlength=meas_count)
        seg_id = np.repeat(np.arange(seg_count, dtype=np.intp), seg_len)
        meas_id = meas_of_seg[seg_id]
        replies_per_meas = np.bincount(meas_id, minlength=meas_count)
        meas_starts = np.zeros(meas_count, dtype=np.intp)
        np.cumsum(replies_per_meas[:-1], out=meas_starts[1:])

        def any_over_segs(seg_flags: np.ndarray) -> np.ndarray:
            return np.bincount(
                meas_of_seg, weights=seg_flags, minlength=meas_count
            ) > 0

        def any_over_replies(flags: np.ndarray) -> np.ndarray:
            return np.bincount(
                meas_id, weights=flags, minlength=meas_count
            ) > 0

        # sample-size: every probing LG needs >= the reply floor, and at
        # least one LG must have probed.
        fail_sample = (
            any_over_segs(seg_len < config.min_replies_per_lg)
            | (segs_per_meas == 0)
        )

        # ttl-switch: any reply TTL differing from the measurement's first.
        first_ttl = np.zeros(meas_count, dtype=ttl.dtype)
        has_replies = replies_per_meas > 0
        first_ttl[has_replies] = ttl[meas_starts[has_replies]]
        fail_switch = any_over_replies(ttl != first_ttl[meas_id])

        # ttl-match: trim replies with unexpected TTLs; an LG falling below
        # the floor discards the interface.
        if skip == "ttl-match":
            kept = np.ones(total, dtype=bool)
            kept_per_seg = seg_len.astype(float)
            fail_match = np.zeros(meas_count, dtype=bool)
        else:
            kept = self._accepted_mask(ttl)
            kept_per_seg = np.bincount(
                seg_id, weights=kept, minlength=seg_count
            )
            fail_match = any_over_segs(
                kept_per_seg < config.min_replies_per_lg
            )

        # rtt-consistent: >= 4 kept replies inside max(5 ms, 10%) of the
        # kept minimum.
        kept_per_meas = np.bincount(meas_id, weights=kept, minlength=meas_count)
        masked_rtt = np.where(kept, rtt, np.inf)
        floor = np.full(meas_count, np.inf)
        if total and has_replies.any():
            floor[has_replies] = np.minimum.reduceat(
                masked_rtt, meas_starts[has_replies]
            )
        with np.errstate(invalid="ignore"):
            ceiling = floor + np.maximum(
                config.consistency_abs_ms, config.consistency_frac * floor
            )
        within = kept & (rtt <= ceiling[meas_id]) if total else kept
        fail_rtt = (kept_per_meas == 0) | (
            np.bincount(meas_id, weights=within, minlength=meas_count) < 4
        )

        # lg-consistent: per-LG kept minima of dual-LG interfaces agree.
        seg_min = np.full(seg_count, np.inf)
        nonempty = seg_len > 0
        if total and nonempty.any():
            seg_min[nonempty] = np.minimum.reduceat(
                masked_rtt, seg_starts[nonempty]
            )
        seg_has_kept = kept_per_seg > 0
        lg_count = np.bincount(
            meas_of_seg, weights=seg_has_kept, minlength=meas_count
        )
        meas_seg_starts = np.zeros(meas_count, dtype=np.intp)
        np.cumsum(segs_per_meas[:-1], out=meas_seg_starts[1:])
        has_segs = segs_per_meas > 0
        low = np.full(meas_count, np.inf)
        high = np.full(meas_count, -np.inf)
        if seg_count and has_segs.any():
            low[has_segs] = np.minimum.reduceat(
                np.where(seg_has_kept, seg_min, np.inf),
                meas_seg_starts[has_segs],
            )
            high[has_segs] = np.maximum.reduceat(
                np.where(seg_has_kept, seg_min, -np.inf),
                meas_seg_starts[has_segs],
            )
        with np.errstate(invalid="ignore"):
            fail_lg = (lg_count >= 2) & (
                high > low + np.maximum(
                    config.consistency_abs_ms, config.consistency_frac * low
                )
            )

        # asn-change: both endpoints identified, and they differ.
        fail_asn = (
            (table.asn_start >= 0) & (table.asn_end >= 0)
            & (table.asn_start != table.asn_end)
        )

        stage_fails = [
            ("sample-size", fail_sample),
            ("ttl-switch", fail_switch),
            ("ttl-match", fail_match),
            ("rtt-consistent", fail_rtt),
            ("lg-consistent", fail_lg),
            ("asn-change", fail_asn),
        ]
        active = [(name, flags) for name, flags in stage_fails if name != skip]
        names = [name for name, _ in active]
        fail_matrix = np.stack([flags for _, flags in active])
        failed = np.flatnonzero(fail_matrix.any(axis=0))
        first_fail = np.argmax(fail_matrix[:, failed], axis=0).tolist()

        report = FilterReport(
            passed=PassedRows(
                table=table,
                rows=np.flatnonzero(~fail_matrix.any(axis=0)),
                kept=kept,
                min_rtt_ms=floor,
                kept_count=kept_per_meas,
                seg_min_ms=seg_min,
                seg_kept=kept_per_seg,
            )
        )
        for row, stage in zip(failed.tolist(), first_fail):
            name = names[stage]
            report.discard_counts[name] += 1
            report.discard_reason[(
                table.ixp_names[int(table.ixp[row])], int(table.address[row])
            )] = name
        return report
