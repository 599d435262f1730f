"""Plain-text rendering of multi-seed study results.

One scaffold serves every study: a headline mean ± 95% CI table per
variant under a shared title format, followed by study-specific blocks
(per-filter discards, greedy-expansion consensus, the viability vote).
Each renderer is its registry kind's ``render`` and is called as
``render(study, result, stats, **flags)``: ``stats`` is the run's one
aggregate, :func:`repro.experiments.aggregate.aggregate` — ``{variant:
{metric: MeanCI}}`` over ``Study.metrics`` of the surviving trials —
and a variant's trial count is the ``n`` of a metric every trial
reports.  Every headline table lists each of ``study.variant_names()``,
a variant that lost every trial with ``n/a`` cells and 0 trials; the
per-variant blocks below it describe the variants with survivors.
:func:`repro.experiments.requests.render_report` computes ``stats`` and
appends the run's coverage note.  Only the offload
report's expansion consensus, a mode per greedy rank rather than a
mean, reads the trials themselves (:func:`expansion_consensus`).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Sequence

from repro.analysis.tables import render_table

if TYPE_CHECKING:  # types only — avoids a reporting ↔ experiments cycle
    from repro.experiments.aggregate import Aggregates, MeanCI
    from repro.experiments.economics import EconomicsStudy
    from repro.experiments.engine import Study, StudyResult
    from repro.experiments.failover import FailoverStudy
    from repro.experiments.joint import JointStudy
    from repro.experiments.mega import MegaStudy
    from repro.experiments.offload import OffloadStudy


def _ci(
    value: MeanCI | None, as_percent: bool = False, decimals: int = 1
) -> str:
    if value is None:
        return "n/a"
    spec = f".{decimals}{'%' if as_percent else 'f'}"
    return f"{value.mean:{spec}} ± {value.half_width:{spec}}"


def _trials(stats: dict[str, MeanCI], metric: str) -> int:
    """A variant's surviving trials: the ``n`` of ``metric``, which
    every trial reports (0 for a variant that lost every trial)."""
    value = stats.get(metric)
    return 0 if value is None else value.n


def _by_prefix(stats: dict[str, MeanCI], prefix: str) -> dict[str, MeanCI]:
    """The ``<prefix><name>`` metrics of one variant, keyed by name."""
    return {
        key[len(prefix):]: ci
        for key, ci in stats.items() if key.startswith(prefix)
    }


def _groups(study: Any) -> dict[str, int]:
    """Each variant's peer group."""
    return {v.name: v.group for v in study.variants}


def ensemble_title(
    label: str, study: Study, result: StudyResult, *extra: str
) -> str:
    """The shared headline-table title of every ensemble report.

    It counts the trials attempted and the study's variants, so a run
    whose variant lost every trial still reports the grid it ran.
    """
    trials = len(result.trials) + len(result.failures)
    details = ", ".join((
        f"{len(study.variant_names())} variant(s) x "
        f"{len(result.config.seeds)} seed(s)",
        f"{result.wall_s:.1f} s wall",
        *extra,
    ))
    return f"{label}: {trials} trials ({details})"


def expansion_consensus(trials: Sequence[Any]) -> list[tuple[str, float]]:
    """The modal IXP at each greedy rank, with the share of ``trials``
    that picked it there (rank ``i`` is entry ``i - 1``)."""
    depth = max((len(t.expansion) for t in trials), default=0)
    consensus = []
    for rank in range(depth):
        picks = Counter(
            t.expansion[rank] for t in trials if len(t.expansion) > rank
        )
        ixp, count = picks.most_common(1)[0]
        consensus.append((ixp, count / len(trials)))
    return consensus


def render_ensemble_report(
    study: Study,
    result: StudyResult,
    stats: Aggregates,
    per_ixp: bool = False,
) -> str:
    """Render the detection study's per-variant mean ± 95% CI tables.

    The headline table always appears; ``per_ixp=True`` appends each
    variant's per-IXP detected remote fractions (long for the 22-IXP
    world, so it is opt-in).
    """
    blocks: list[str] = []

    headline_rows = []
    for variant in study.variant_names():
        s = stats.get(variant, {})
        headline_rows.append([
            variant,
            _trials(s, "candidates"),
            _ci(s.get("precision"), as_percent=True),
            _ci(s.get("recall"), as_percent=True),
            _ci(s.get("analyzed")),
            _ci(s.get("candidates")),
            _ci(s.get("shortfall")),
        ])
    blocks.append(render_table(
        ["variant", "trials", "precision", "recall", "analyzed",
         "candidates", "shortfall"],
        headline_rows,
        title=ensemble_title("Ensemble", study, result),
    ))

    for variant, s in stats.items():
        rows = [[name, _ci(ci)]
                for name, ci in _by_prefix(s, "discards/").items()]
        blocks.append(render_table(
            ["filter", "discards"],
            rows,
            title=f"Per-filter discards — {variant}",
        ))

    if per_ixp:
        for variant, s in stats.items():
            rows = [
                [acr, _ci(ci, as_percent=True)]
                for acr, ci in sorted(
                    _by_prefix(s, "remote_fraction/").items())
            ]
            blocks.append(render_table(
                ["IXP", "remote fraction"],
                rows,
                title=f"Detected remote fraction — {variant}",
            ))

    return "\n\n".join(blocks)


def render_offload_ensemble_report(
    study: OffloadStudy, result: StudyResult, stats: Aggregates
) -> str:
    """Render the offload ensemble: fractions table + expansion consensus.

    The headline table reports mean ± 95% CI maximum offload fractions
    (inbound/outbound at all reachable IXPs), offloadable-network and
    candidate counts, and the share of the greedy expansion's gain its
    first five IXPs realize; one consensus table per variant shows the
    modal greedy order with per-rank agreement across seeds.
    """
    blocks: list[str] = []
    group = _groups(study)

    headline_rows = []
    for variant in study.variant_names():
        s = stats.get(variant, {})
        headline_rows.append([
            variant,
            group[variant],
            _trials(s, "inbound_fraction"),
            _ci(s.get("inbound_fraction"), as_percent=True),
            _ci(s.get("outbound_fraction"), as_percent=True),
            _ci(s.get("offloadable_networks")),
            _ci(s.get("candidates")),
            _ci(s.get("five_ixp_share"), as_percent=True),
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "inbound offload", "outbound offload",
         "offloadable nets", "candidates", "5-IXP share"],
        headline_rows,
        title=ensemble_title("Offload ensemble", study, result),
    ))

    for variant, trials in result.by_variant().items():
        rows = [
            [rank, ixp, f"{agreement:.0%}"]
            for rank, (ixp, agreement)
            in enumerate(expansion_consensus(trials), start=1)
        ]
        blocks.append(render_table(
            ["#", "modal IXP", "agreement"],
            rows,
            title=f"Greedy expansion consensus — {variant}",
        ))

    return "\n\n".join(blocks)


def render_joint_ensemble_report(
    study: JointStudy, result: StudyResult, stats: Aggregates
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
    group = _groups(study)

    headline_rows = []
    for variant in study.variant_names():
        s = stats.get(variant, {})
        headline_rows.append([
            variant,
            group[variant],
            _trials(s, "detected_fraction"),
            _ci(s.get("precision"), as_percent=True),
            _ci(s.get("recall"), as_percent=True),
            _ci(s.get("detected_fraction"), as_percent=True),
            _ci(s.get("oracle_fraction"), as_percent=True),
            _ci(s.get("offload_gap"), as_percent=True),
            _ci(s.get("realized_savings"), as_percent=True),
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "precision", "recall",
         "detected offload", "oracle offload", "gap", "realized savings"],
        headline_rows,
        title=ensemble_title(
            "Joint detection->offload ensemble", study, result
        ),
    ))

    for variant, s in stats.items():
        rows = [
            ["oracle remote peers", _ci(s["oracle_peers"])],
            ["detected remote peers", _ci(s["detected_peers"])],
            ["phantom peers (false calls)", _ci(s["phantom_peers"])],
            ["offload realized via detected map",
             _ci(s["realized_fraction"], as_percent=True)],
            ["bill before offload", _ci(s["before_bill"])],
            ["savings forecast from detected map",
             _ci(s["believed_savings"], as_percent=True)],
            ["savings realized",
             _ci(s["realized_savings"], as_percent=True)],
            ["savings with oracle map",
             _ci(s["oracle_savings"], as_percent=True)],
            ["billing forecast error",
             _ci(s["billing_error"], as_percent=True)],
        ]
        blocks.append(render_table(
            ["quantity", "mean ± 95% CI"],
            rows,
            title=f"Peer map and billing — {variant}",
        ))

    return "\n\n".join(blocks)


def render_failover_ensemble_report(
    study: FailoverStudy, result: StudyResult, stats: Aggregates
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
    group = _groups(study)

    headline_rows = []
    for variant in study.variant_names():
        s = stats.get(variant, {})
        headline_rows.append([
            variant,
            group[variant],
            _trials(s, "offload_fraction"),
            _ci(s.get("offload_fraction"), as_percent=True),
            _ci(s.get("ideal_savings"), as_percent=True),
            _ci(s.get("realized_savings"), as_percent=True),
            _ci(s.get("billing_error"), as_percent=True, decimals=2),
            _ci(s.get("dark_fraction"), as_percent=True, decimals=2),
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "offload", "ideal savings",
         "realized savings", "billing error", "dark time"],
        headline_rows,
        title=ensemble_title("Failover ensemble", study, result),
    ))

    for variant, s in stats.items():
        rows = [
            ["IXPs in greedy footprint", _ci(s["ixp_count"], decimals=1)],
            ["pseudowire dark windows", _ci(s["dark_windows"], decimals=1)],
            ["dark time fraction",
             _ci(s["dark_fraction"], as_percent=True, decimals=3)],
            ["bill before offload", _ci(s["before_bill"])],
            ["burst penalty (bill units)",
             _ci(s["burst_penalty"], decimals=2)],
            ["savings lost to failover",
             _ci(s["billing_error"], as_percent=True, decimals=3)],
        ]
        blocks.append(render_table(
            ["quantity", "mean ± 95% CI"],
            rows,
            title=f"Failover billing — {variant}",
        ))

    return "\n\n".join(blocks)


def render_economics_ensemble_report(
    study: EconomicsStudy, result: StudyResult, stats: Aggregates
) -> str:
    """Render the economics ensemble: savings CIs + the eq. 14 vote.

    The headline table reports the mean ± 95% CI 95th-percentile
    transit-bill savings fraction, the fitted equation 3 decay rate, the
    closed-form optimal footprints (ñ direct, m̃ remote), the maximum
    offload fractions the savings derive from, and the viability vote —
    how many seeds' fitted decay satisfied equation 14 (the ``viable``
    metric is 1 or 0 per trial, so its mean times ``n`` counts them, and
    the verdict is a majority: a mean of at least one half).
    """
    blocks: list[str] = []
    group = _groups(study)

    headline_rows = []
    for variant in study.variant_names():
        s = stats.get(variant, {})
        viable = s.get("viable")
        headline_rows.append([
            variant,
            group[variant],
            _trials(s, "viable"),
            _ci(s.get("savings_fraction"), as_percent=True),
            _ci(s.get("decay_rate"), decimals=3),
            _ci(s.get("optimal_direct_ixps"), decimals=2),
            _ci(s.get("optimal_remote_ixps"), decimals=2),
            "n/a" if viable is None else
            f"{viable.mean * viable.n:.0f}/{viable.n} ({viable.mean:.0%})",
        ])
    blocks.append(render_table(
        ["variant", "group", "trials", "bill savings", "decay b",
         "ñ direct", "m̃ remote", "viable (eq. 14)"],
        headline_rows,
        title=ensemble_title("Economics ensemble", study, result),
    ))

    for variant, s in stats.items():
        rows = [
            ["bill before offload", _ci(s["before_bill"])],
            ["bill after offload", _ci(s["after_bill"])],
            ["inbound offload fraction",
             _ci(s["inbound_fraction"], as_percent=True)],
            ["outbound offload fraction",
             _ci(s["outbound_fraction"], as_percent=True)],
            ["eq. 14 verdict",
             "VIABLE" if s["viable"].mean >= 0.5 else "not viable"],
        ]
        blocks.append(render_table(
            ["quantity", "mean ± 95% CI"],
            rows,
            title=f"Billing and viability — {variant}",
        ))

    return "\n\n".join(blocks)


def render_mega_report(
    study: MegaStudy, result: StudyResult, stats: Aggregates
) -> str:
    """Render the mega expansion: covered-traffic CIs + the first world.

    The headline table lists every variant of the study (``n/a`` for one
    without a surviving trial); the trailer describes the first
    surviving trial's world, the phase seconds the scheduler recorded
    for it, and its greedy expansion order.
    """
    rows = []
    for variant in study.variant_names():
        s = stats.get(variant, {})
        members = s.get("covered_networks")
        rows.append([
            variant,
            _ci(s.get("covered_fraction"), as_percent=True),
            _ci(s.get("five_ixp_share"), as_percent=True),
            "n/a" if members is None else f"{members.mean:,.0f}",
        ])
    blocks = [render_table(
        ["variant", "covered traffic", "5-IXP share", "covered networks"],
        rows,
        title=ensemble_title(
            "Mega expansion", study, result,
            f"transport={result.config.transport}",
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
