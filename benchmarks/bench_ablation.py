"""Ablations of the design choices DESIGN.md calls out.

1. Remoteness threshold (5/10/15/20 ms): the false-positive /
   false-negative trade-off behind the paper's conservative 10 ms choice.
2. Drop-one-filter: how much each of the six filters matters.
3. Minimum vs median RTT as the remoteness statistic.
4. Greedy vs size-ordered vs alphabetical IXP selection in the offload
   expansion.
"""

import numpy as np
from conftest import CAMPAIGN_SEED, emit

from repro.analysis.tables import render_table
from repro.core.detection import CampaignConfig, ProbeCampaign
from repro.core.detection.filters import FilterPipeline
from repro.core.detection.results import build_result
from repro.core.detection.validation import validate_against_truth
from repro.ixp.catalog import paper_catalog


def bench_ablation_threshold(benchmark, detection_world, detection_result):
    """Threshold sweep: precision stays ~1 while recall falls with height."""
    thresholds = (5.0, 10.0, 15.0, 20.0)

    def compute():
        return {
            t: validate_against_truth(
                detection_world, detection_result, threshold_ms=t
            )
            for t in thresholds
        }

    reports = benchmark.pedantic(compute, rounds=3, iterations=1)
    rows = [
        [f"{t:g} ms", r.false_positives, r.false_negatives,
         round(r.precision, 4), round(r.recall, 4)]
        for t, r in reports.items()
    ]
    table = render_table(
        ["threshold", "false positives", "false negatives", "precision",
         "recall"],
        rows,
        title="Ablation — remoteness threshold",
    )
    emit("ablation_threshold", table
         + "\nthe paper picks 10 ms to avoid false positives at the cost of"
           " some false negatives — visible here as precision ~1 with"
           " recall < 1")
    assert reports[10.0].precision >= reports[5.0].precision
    assert reports[5.0].recall >= reports[10.0].recall >= reports[20.0].recall


def bench_ablation_drop_filter(benchmark, detection_world, campaign):
    """Drop each filter and measure the classification damage."""
    measurements = campaign.collect()

    pipeline = FilterPipeline()

    def run_without(dropped: str | None):
        # Filter stages never mutate their input, so every variant re-reads
        # the same raw measurements without defensive copies.
        report = pipeline.run(measurements, skip=dropped)
        return build_result(measurements, report, threshold_ms=10.0)

    def compute():
        out = {}
        for dropped in (None, "rtt-consistent", "ttl-match", "sample-size"):
            result = run_without(dropped)
            report = validate_against_truth(detection_world, result)
            out[dropped or "(none)"] = (result.analyzed_count(), report)
        return out

    outcomes = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [name, analyzed, r.false_positives, round(r.precision, 4)]
        for name, (analyzed, r) in outcomes.items()
    ]
    table = render_table(
        ["dropped filter", "analyzed", "false positives", "precision"],
        rows,
        title="Ablation — drop one filter",
    )
    emit("ablation_filters", table
         + "\ndropping the RTT-consistent filter admits persistently"
           " congested interfaces and costs precision")
    baseline_fp = outcomes["(none)"][1].false_positives
    no_rtt_fp = outcomes["rtt-consistent"][1].false_positives
    assert no_rtt_fp > baseline_fp


def bench_ablation_min_vs_median(benchmark, detection_world, campaign):
    """Median RTT as the remoteness statistic inflates false positives."""
    measurements = campaign.collect()
    pipeline = FilterPipeline()
    report = pipeline.run(measurements)

    passed = list(report.passed)
    found = detection_world.table.find_rows(
        [detection_world.exchange_index[m.ixp_acronym] for m in passed],
        [m.address.value for m in passed],
    )
    assert (found >= 0).all(), "every analyzed interface has a table row"
    truly_remote = detection_world.table.is_remote[found].tolist()

    def classify(statistic: str):
        fp = fn = 0
        for m, remote in zip(passed, truly_remote):
            rtts = [r.rtt_ms for r in m.all_replies()]
            value = min(rtts) if statistic == "min" else float(np.median(rtts))
            called = value >= 10.0
            if called and not remote:
                fp += 1
            if not called and remote:
                fn += 1
        return fp, fn

    def compute():
        return {s: classify(s) for s in ("min", "median")}

    outcomes = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [[s, fp, fn] for s, (fp, fn) in outcomes.items()]
    table = render_table(
        ["statistic", "false positives", "false negatives"],
        rows,
        title="Ablation — minimum vs median RTT",
    )
    emit("ablation_statistic", table
         + "\nthe paper's choice of the minimum RTT defeats transient"
           " congestion; the median does not")
    assert outcomes["median"][0] >= outcomes["min"][0]


def bench_ablation_exclusion_rules(benchmark, offload_world):
    """How much potential each Section 4.2 exclusion rule forgoes."""
    from repro.core.offload import OffloadEstimator, PeerGroups

    variants = {
        "all rules (paper)": {},
        "keep home-IXP members": {"exclude_home_ixp_members": False},
        "keep GEANT club": {"exclude_geant_club": False},
        "keep transit providers": {"exclude_transit_providers": False},
    }

    def compute():
        out = {}
        for label, kwargs in variants.items():
            groups = PeerGroups.build(offload_world, **kwargs)
            est = OffloadEstimator(offload_world, groups)
            inbound, outbound = est.offload_bps(est.reachable_ixps(), 4)
            out[label] = (groups.candidate_count(), inbound + outbound)
        return out

    outcomes = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [label, count, round(total / 1e9, 2)]
        for label, (count, total) in outcomes.items()
    ]
    table = render_table(
        ["exclusion variant", "candidates", "offload g4 (Gbps)"],
        rows,
        title="Ablation — the Section 4.2 exclusion rules",
    )
    emit("ablation_exclusions", table
         + "\nkeeping the home-IXP members (incl. every tier-1) adds the"
           " most potential — exactly why the paper excludes them as"
           " already-peerable locally")
    baseline = outcomes["all rules (paper)"]
    for label, (count, total) in outcomes.items():
        assert count >= baseline[0] or label == "all rules (paper)"
        assert total >= baseline[1] - 1e-6


def bench_ablation_ixp_selection(benchmark, estimator):
    """Greedy vs naive IXP orderings for the offload expansion."""
    from repro.core.offload import greedy_expansion

    world = estimator.world
    total = float(
        world.matrix.inbound_bps.sum() + world.matrix.outbound_bps.sum()
    )

    def offload_after(order, k=5):
        mask = estimator.mask_for(order[:k], 4)
        return float(
            world.matrix.inbound_bps[mask].sum()
            + world.matrix.outbound_bps[mask].sum()
        )

    def compute():
        greedy_steps = greedy_expansion(estimator, 4, max_ixps=5)
        greedy = sum(s.gained_total_bps for s in greedy_steps)
        by_members = sorted(
            world.memberships, key=lambda a: -len(world.memberships[a])
        )
        alphabetical = sorted(world.memberships)
        return {
            "greedy (paper)": greedy,
            "largest membership first": offload_after(by_members),
            "alphabetical": offload_after(alphabetical),
        }

    outcomes = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [name, round(value / 1e9, 3), f"{value / total:.1%}"]
        for name, value in outcomes.items()
    ]
    table = render_table(
        ["selection policy", "offload at 5 IXPs (Gbps)", "share"],
        rows,
        title="Ablation — IXP selection policy",
    )
    emit("ablation_selection", table
         + "\nthe greedy expansion dominates naive orderings at equal cost")
    assert outcomes["greedy (paper)"] >= outcomes["largest membership first"]
    assert outcomes["greedy (paper)"] >= outcomes["alphabetical"]
