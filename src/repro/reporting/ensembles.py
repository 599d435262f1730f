"""Plain-text rendering of multi-seed study results.

One scaffold serves every study: a headline mean ± 95% CI table per
variant under a shared title format, followed by study-specific blocks
(per-filter discards, greedy-expansion consensus, the viability vote).
Each renderer takes the run's :class:`~repro.experiments.engine.
StudyResult` (trial counts, seeds, wall time) and the per-variant
summaries its study computes; :func:`repro.experiments.requests.
render_report` pairs the two and appends the run's coverage note.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.tables import render_table

if TYPE_CHECKING:  # result types only — avoids a reporting ↔ experiments cycle
    from repro.experiments.aggregate import MeanCI, VariantSummary
    from repro.experiments.economics import EconomicsVariantSummary
    from repro.experiments.engine import StudyResult
    from repro.experiments.failover import FailoverVariantSummary
    from repro.experiments.joint import JointVariantSummary
    from repro.experiments.offload import OffloadVariantSummary


def _ci(
    value: MeanCI | None, as_percent: bool = False, decimals: int = 1
) -> str:
    if value is None:
        return "n/a"
    if as_percent:
        return f"{value.mean:.1%} ± {value.half_width:.1%}"
    return f"{value.mean:.{decimals}f} ± {value.half_width:.{decimals}f}"


def ensemble_title(
    label: str, trials: int, variants: int, seeds: int, wall_s: float
) -> str:
    """The shared headline-table title of every ensemble report."""
    return (
        f"{label}: {trials} trials ({variants} variant(s) x {seeds} "
        f"seed(s), {wall_s:.1f} s wall)"
    )


def render_ensemble_report(
    result: StudyResult,
    summaries: Sequence[VariantSummary],
    per_ixp: bool = False,
) -> str:
    """Render the detection study's per-variant mean ± 95% CI tables.

    The headline table always appears; ``per_ixp=True`` appends each
    variant's per-IXP detected remote fractions (long for the 22-IXP
    world, so it is opt-in).
    """
    blocks: list[str] = []

    headline_rows = []
    for s in summaries:
        headline_rows.append([
            s.variant,
            s.trials,
            _ci(s.precision, as_percent=True),
            _ci(s.recall, as_percent=True),
            _ci(s.analyzed),
            _ci(s.candidates),
            _ci(s.shortfall),
        ])
    blocks.append(render_table(
        ["variant", "trials", "precision", "recall", "analyzed",
         "candidates", "shortfall"],
        headline_rows,
        title=ensemble_title(
            "Ensemble", len(result.trials), len(summaries),
            len(result.config.seeds), result.wall_s,
        ),
    ))

    for s in summaries:
        rows = [[name, _ci(ci)] for name, ci in s.discards.items()]
        blocks.append(render_table(
            ["filter", "discards"],
            rows,
            title=f"Per-filter discards — {s.variant}",
        ))

    if per_ixp:
        for s in summaries:
            rows = [
                [acr, _ci(ci, as_percent=True)]
                for acr, ci in s.remote_fraction_by_ixp.items()
            ]
            blocks.append(render_table(
                ["IXP", "remote fraction"],
                rows,
                title=f"Detected remote fraction — {s.variant}",
            ))

    return "\n\n".join(blocks)


def render_offload_ensemble_report(
    result: StudyResult, summaries: Sequence[OffloadVariantSummary]
) -> str:
    """Render the offload ensemble: fractions table + expansion consensus.

    The headline table reports mean ± 95% CI maximum offload fractions
    (inbound/outbound at all reachable IXPs), offloadable-network and
    candidate counts, and the share of the greedy expansion's gain its
    first five IXPs realize; one consensus table per variant shows the
    modal greedy order with per-rank agreement across seeds.
    """
    blocks: list[str] = []

    headline_rows = []
    for s in summaries:
        headline_rows.append([
            s.variant,
            s.group,
            s.trials,
            _ci(s.inbound_fraction, as_percent=True),
            _ci(s.outbound_fraction, as_percent=True),
            _ci(s.offloadable_networks),
            _ci(s.candidate_count),
            _ci(s.five_ixp_share, as_percent=True),
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "inbound offload", "outbound offload",
         "offloadable nets", "candidates", "5-IXP share"],
        headline_rows,
        title=ensemble_title(
            "Offload ensemble", len(result.trials), len(summaries),
            len(result.config.seeds), result.wall_s,
        ),
    ))

    for s in summaries:
        rows = [
            [c.rank, c.ixp, f"{c.agreement:.0%}"]
            for c in s.expansion_consensus
        ]
        blocks.append(render_table(
            ["#", "modal IXP", "agreement"],
            rows,
            title=f"Greedy expansion consensus — {s.variant}",
        ))

    return "\n\n".join(blocks)


def render_joint_ensemble_report(
    result: StudyResult, summaries: Sequence[JointVariantSummary]
) -> str:
    """Render the joint detection→offload ensemble.

    The headline table reports the detection confusion (precision and
    recall), the offload fraction estimated *via the detected peer set*,
    the oracle fraction it should have been, their gap, and the
    transit-bill savings the detected map actually realizes — all
    mean ± 95% CI.  One block per variant decomposes the peer map
    (oracle / detected / phantom counts) and the billing chain (forecast
    vs realized savings, the forecast error, the baseline bill).
    """
    blocks: list[str] = []

    headline_rows = []
    for s in summaries:
        headline_rows.append([
            s.variant,
            s.group,
            s.trials,
            _ci(s.precision, as_percent=True),
            _ci(s.recall, as_percent=True),
            _ci(s.detected_fraction, as_percent=True),
            _ci(s.oracle_fraction, as_percent=True),
            _ci(s.offload_gap, as_percent=True),
            _ci(s.realized_savings, as_percent=True),
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "precision", "recall",
         "detected offload", "oracle offload", "gap", "realized savings"],
        headline_rows,
        title=ensemble_title(
            "Joint detection->offload ensemble", len(result.trials),
            len(summaries), len(result.config.seeds), result.wall_s,
        ),
    ))

    for s in summaries:
        rows = [
            ["oracle remote peers", _ci(s.oracle_peers)],
            ["detected remote peers", _ci(s.detected_peers)],
            ["phantom peers (false calls)", _ci(s.phantom_peers)],
            ["offload realized via detected map",
             _ci(s.realized_fraction, as_percent=True)],
            ["bill before offload", _ci(s.before_bill)],
            ["savings forecast from detected map",
             _ci(s.believed_savings, as_percent=True)],
            ["savings realized", _ci(s.realized_savings, as_percent=True)],
            ["savings with oracle map", _ci(s.oracle_savings,
                                            as_percent=True)],
            ["billing forecast error", _ci(s.billing_error,
                                           as_percent=True)],
        ]
        blocks.append(render_table(
            ["quantity", "mean ± 95% CI"],
            rows,
            title=f"Peer map and billing — {s.variant}",
        ))

    return "\n\n".join(blocks)


def render_failover_ensemble_report(
    result: StudyResult, summaries: Sequence[FailoverVariantSummary]
) -> str:
    """Render the failover ensemble: savings eroded by dark pseudowires.

    The headline table reports, per fault variant, the fault-free (ideal)
    and realized 95th-percentile bill-savings fractions, the billing
    error between them, and the dark-time exposure that caused it — all
    mean ± 95% CI.  One block per variant decomposes the billing chain
    (baseline bill, burst penalty) and the chaos drawn (dark windows,
    dark-time fraction, IXP footprint).
    """
    blocks: list[str] = []

    headline_rows = []
    for s in summaries:
        headline_rows.append([
            s.variant,
            s.group,
            s.trials,
            _ci(s.offload_fraction, as_percent=True),
            _ci(s.ideal_savings, as_percent=True),
            _ci(s.realized_savings, as_percent=True),
            f"{s.billing_error.mean:.2%} ± {s.billing_error.half_width:.2%}",
            f"{s.dark_fraction.mean:.2%} ± {s.dark_fraction.half_width:.2%}",
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "offload", "ideal savings",
         "realized savings", "billing error", "dark time"],
        headline_rows,
        title=ensemble_title(
            "Failover ensemble", len(result.trials), len(summaries),
            len(result.config.seeds), result.wall_s,
        ),
    ))

    for s in summaries:
        rows = [
            ["IXPs in greedy footprint", _ci(s.ixp_count, decimals=1)],
            ["pseudowire dark windows", _ci(s.dark_windows, decimals=1)],
            ["dark time fraction",
             f"{s.dark_fraction.mean:.3%} ± {s.dark_fraction.half_width:.3%}"],
            ["bill before offload", _ci(s.before_bill)],
            ["burst penalty (bill units)", _ci(s.burst_penalty, decimals=2)],
            ["savings lost to failover",
             f"{s.billing_error.mean:.3%} ± "
             f"{s.billing_error.half_width:.3%}"],
        ]
        blocks.append(render_table(
            ["quantity", "mean ± 95% CI"],
            rows,
            title=f"Failover billing — {s.variant}",
        ))

    return "\n\n".join(blocks)


def render_economics_ensemble_report(
    result: StudyResult, summaries: Sequence[EconomicsVariantSummary]
) -> str:
    """Render the economics ensemble: savings CIs + the eq. 14 vote.

    The headline table reports the mean ± 95% CI 95th-percentile
    transit-bill savings fraction, the fitted equation 3 decay rate, the
    closed-form optimal footprints (ñ direct, m̃ remote), the maximum
    offload fractions the savings derive from, and the viability vote —
    how many seeds' fitted decay satisfied equation 14.
    """
    blocks: list[str] = []

    headline_rows = []
    for s in summaries:
        headline_rows.append([
            s.variant,
            s.group,
            s.trials,
            _ci(s.savings_fraction, as_percent=True),
            _ci(s.decay_rate, decimals=3),
            _ci(s.optimal_direct_ixps, decimals=2),
            _ci(s.optimal_remote_ixps, decimals=2),
            f"{s.viable_votes}/{s.trials} ({s.viability_vote:.0%})",
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "bill savings", "decay b",
         "ñ direct", "m̃ remote", "viable (eq. 14)"],
        headline_rows,
        title=ensemble_title(
            "Economics ensemble", len(result.trials), len(summaries),
            len(result.config.seeds), result.wall_s,
        ),
    ))

    for s in summaries:
        rows = [
            ["bill before offload", _ci(s.before_bill)],
            ["bill after offload", _ci(s.after_bill)],
            ["inbound offload fraction", _ci(s.inbound_fraction,
                                             as_percent=True)],
            ["outbound offload fraction", _ci(s.outbound_fraction,
                                              as_percent=True)],
            ["eq. 14 verdict",
             "VIABLE" if 2 * s.viable_votes >= s.trials else "not viable"
             ],
        ]
        blocks.append(render_table(
            ["quantity", "mean ± 95% CI"],
            rows,
            title=f"Billing and viability — {s.variant}",
        ))

    return "\n\n".join(blocks)


def render_mega_report(result: StudyResult, variants: Sequence[str]) -> str:
    """Render the mega expansion: covered-traffic CIs + the first world.

    The headline table reads the engine's per-variant aggregates (a mega
    trial carries no per-variant summary type); the trailer describes the
    first surviving trial's world, the phase seconds the scheduler
    recorded for it, and its greedy expansion order.
    """
    rows = []
    for variant in variants:
        stats = result.streaming.get(variant, {})
        members = stats.get("covered_networks")
        rows.append([
            variant,
            _ci(stats.get("covered_fraction"), as_percent=True),
            _ci(stats.get("five_ixp_share"), as_percent=True),
            "n/a" if members is None else f"{members.mean:,.0f}",
        ])
    trials = len(result.trials) + len(result.failures)
    blocks = [render_table(
        ["variant", "covered traffic", "5-IXP share", "covered networks"],
        rows,
        title=(
            f"Mega expansion: {trials} trials "
            f"({len(variants)} variant(s) x {len(result.config.seeds)} "
            f"seed(s), {result.wall_s:.1f} s wall, "
            f"transport={result.config.transport})"
        ),
    )]
    if result.trials:
        first = result.trials[0]
        timing = result.timings[first.trial_id]
        blocks.append(
            f"World: {first.network_count:,} networks, "
            f"{first.member_total:,} IXP memberships "
            f"(build {timing['build_s']:.2f} s, "
            f"trial {timing['measure_s']:.2f} s).\n"
            f"Greedy expansion (seed {first.seed}): "
            f"{' -> '.join(first.expansion)}"
        )
    return "\n\n".join(blocks)
