"""End-to-end speed benchmark: the numbers the perf work is held to.

Times the hot paths of every study — detection-world build, the probing
campaign, the filter pipeline (segment reductions), a 16-trial mini-world detection ensemble, a 256-trial
small-world detection campaign (the trial-batch scheduling path at
scale), the offload-world build, the peer-group/cone-table setup, the greedy IXP expansion, a 16-trial
paper-scale offload ensemble at ``StudyConfig.trial_batch`` 1 *and* 16
(sixteen worlds per work item, each built, measured and dropped in turn
under one GC pause), a 16-trial small-world *economics* ensemble (Sections
3+4+5 end-to-end), a 16-trial small joint detection→offload ensemble
(measured detection confusion propagated into the offload peer map and
the bill), and the small ``failover`` scenario (pseudowire dark windows
priced against the 95th-percentile rule), the 100k-network mega-world
build (columnar pool + CAIDA-style hierarchy) and the shared-memory
world transport dispatch against its pickle reference — and writes
``BENCH_speed.json`` (schema ``bench_speed/v8``) at the repo root so
the perf trajectory is tracked across PRs.

Since v8 every stage also records the process peak RSS (``memory_mb``,
the ``ru_maxrss`` high-water mark sampled after the stage completes).
The mark is cumulative over the process, so stage order matters: the
mega stages run *first*, making their readings (gated by the
``MEMORY_BUDGETS_MB`` table in ``check_regression.py``) a faithful
ceiling on what the mega build itself allocates.

Run it directly (it is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_speed.py
    PYTHONPATH=src python benchmarks/bench_speed.py --quick  # no JSON write

``--quick`` (what ``make smoke`` uses through
``benchmarks/check_regression.py --quick``) skips the slow reference
stages — the per-trial paper-scale offload ensemble and the 256-trial
detection campaign — and compares only the
stages it ran.  The *batched* paper-scale offload ensemble stays in
quick mode: it is the fastest full-scale end-to-end gate in the suite.  ``benchmarks/check_regression.py``
reruns these stages and fails when any of them regresses more than 2x
against the committed baseline.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import platform
import resource
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_speed.json"

WORLD_SEED = 42
CAMPAIGN_SEED = 7

#: Trials dispatched per transport in the shm-vs-pickle comparison.
TRANSPORT_TRIALS = 8


def _timed(fn):
    # Drain the previous stage's garbage before starting the clock so
    # each stage is timed against a clean heap, not its predecessor's
    # leftovers (the same hygiene ``timeit`` applies by disabling GC).
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _peak_rss_mb() -> float:
    """The process peak-RSS high-water mark in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collect_payload(quick: bool = False) -> dict:
    """Run every timed stage and assemble the BENCH payload.

    ``quick=True`` drops the per-trial paper-scale offload ensemble and
    the 256-trial detection campaign (the slow half of the run) — the
    regression guard
    only compares stages present on both sides, so the quick payload
    still gates every vectorized hot path.
    """
    from repro.core.detection import CampaignConfig, FilterPipeline, ProbeCampaign
    from repro.core.offload import OffloadEstimator, PeerGroups, greedy_expansion
    from repro.experiments import (
        ConfigVariant,
        DetectionStudy,
        EconomicsStudy,
        EconomicsVariant,
        FailoverStudy,
        FailoverVariant,
        JointStudy,
        JointVariant,
        OffloadStudy,
        OffloadVariant,
        StudyConfig,
        aggregate,
        run_study,
    )
    from repro.experiments.transport import SegmentManager, attach_columns
    from repro.faults import FaultConfig
    from repro.reporting import expansion_consensus
    from repro.sim import DetectionWorldConfig, build_mega_world, scenarios
    from repro.sim.scenarios import (
        joint_preset_configs,
        mega_config,
        mini_specs,
        rediris_small_config,
    )

    timings: dict[str, float] = {}
    memory_mb: dict[str, float] = {}

    def stage(name: str, fn):
        value, timings[name] = _timed(fn)
        memory_mb[name] = round(_peak_rss_mb(), 1)
        return value

    # -- mega world + transport (first: their RSS marks stay faithful) -----
    mega_world = stage(
        "mega_world_build_100k",
        lambda: build_mega_world(mega_config(seed=WORLD_SEED)),
    )
    mega_meta, mega_columns = mega_world.config, mega_world.export_columns()
    world_nbytes = int(sum(a.nbytes for a in mega_columns.values()))

    def _pickle_dispatch() -> None:
        # The pickle transport's per-trial cost: the whole world crosses
        # the executor channel (dumps in the parent, loads in the worker)
        # once per dispatched trial.
        for _ in range(TRANSPORT_TRIALS):
            blob = pickle.dumps(
                (mega_meta, mega_columns), protocol=pickle.HIGHEST_PROTOCOL
            )
            pickle.loads(blob)

    def _shm_dispatch() -> None:
        # The shm transport's per-trial cost: the columns cross once at
        # create(); each trial ships only the descriptor and attaches
        # zero-copy views.
        manager = SegmentManager()
        try:
            descriptor = manager.create(mega_columns, refs=TRANSPORT_TRIALS)
            for _ in range(TRANSPORT_TRIALS):
                blob = pickle.dumps(
                    descriptor, protocol=pickle.HIGHEST_PROTOCOL
                )
                attached = attach_columns(pickle.loads(blob))
                attached.close()
                manager.release(descriptor.segment)
        finally:
            manager.close_all()

    _, pickle_dispatch_s = _timed(_pickle_dispatch)
    stage("study_transport_shm_vs_pickle", _shm_dispatch)
    shm_dispatch_s = timings["study_transport_shm_vs_pickle"]
    del mega_columns, mega_world

    world = stage(
        "detection_world_build", lambda: scenarios.paper22(seed=WORLD_SEED)
    )

    batch_campaign = ProbeCampaign(world, CampaignConfig(seed=CAMPAIGN_SEED))
    batch_measurements = stage("collect_batch", batch_campaign.collect)

    pipeline = FilterPipeline()
    report = stage("filter_pipeline", lambda: pipeline.run(batch_measurements)
    )

    mini3 = DetectionStudy(variants=(
        ConfigVariant(
            name="mini3", world=DetectionWorldConfig(specs=mini_specs())
        ),
    ))
    ensemble_result = stage("ensemble_mini3_16trials", lambda: run_study(
            mini3, StudyConfig(seeds=tuple(range(16)))
        )
    )
    (ensemble_stats,) = aggregate(mini3, ensemble_result).values()

    if not quick:
        big_ensemble = stage("detection_ensemble_256trials_small", lambda: run_study(
                mini3, StudyConfig(seeds=tuple(range(256)), trial_batch=16)
            )
        )
        (big_ensemble_stats,) = aggregate(mini3, big_ensemble).values()

    offload_world = stage("offload_world_build", lambda: scenarios.rediris(seed=WORLD_SEED)
    )
    (groups, estimator) = stage("offload_groups_build", lambda: (
            (g := PeerGroups.build(offload_world)),
            OffloadEstimator(offload_world, g),
        )
    )
    steps = stage("greedy_expansion", lambda: greedy_expansion(estimator, 4, max_ixps=8)
    )
    all_ixps = estimator.reachable_ixps()
    max_in, max_out = estimator.offload_fractions(all_ixps, 4)

    paper65 = OffloadStudy(variants=(OffloadVariant(name="paper65"),))
    if not quick:
        offload_ensemble = stage("offload_ensemble_16trials", lambda: run_study(
                paper65, StudyConfig(seeds=tuple(range(16)))
            )
        )
        (offload_stats,) = aggregate(paper65, offload_ensemble).values()
        offload_consensus = expansion_consensus(offload_ensemble.trials)

    batched_ensemble = stage("offload_ensemble_16trials_batched", lambda: run_study(
            paper65, StudyConfig(seeds=tuple(range(16)), trial_batch=16)
        )
    )
    (batched_stats,) = aggregate(paper65, batched_ensemble).values()
    batched_consensus = expansion_consensus(batched_ensemble.trials)

    economics = EconomicsStudy(variants=(
        EconomicsVariant(name="small", world=rediris_small_config()),
    ))
    economics_ensemble = stage("economics_ensemble_small_16trials", lambda: run_study(
            economics, StudyConfig(seeds=tuple(range(16)))
        )
    )
    (economics_stats,) = aggregate(economics, economics_ensemble).values()
    viable = economics_stats["viable"]

    joint_detection, joint_offload = joint_preset_configs("small")
    joint = JointStudy(variants=(
        JointVariant(
            name="small",
            detection_world=joint_detection,
            offload_world=joint_offload,
        ),
    ))
    joint_ensemble = stage("joint_study_small_16trials", lambda: run_study(
            joint, StudyConfig(seeds=tuple(range(16)))
        )
    )
    (joint_stats,) = aggregate(joint, joint_ensemble).values()

    failover = FailoverStudy(variants=(
        FailoverVariant(
            name="small", world=rediris_small_config(), faults=FaultConfig(),
        ),
    ))
    failover_ensemble = stage("failover_scenario_small", lambda: run_study(
            failover, StudyConfig(seeds=tuple(range(16)))
        )
    )
    (failover_stats,) = aggregate(failover, failover_ensemble).values()

    payload = {
        "schema": "bench_speed/v8",
        "python": platform.python_version(),
        "quick": quick,
        "seeds": {"world": WORLD_SEED, "campaign": CAMPAIGN_SEED},
        "timings_s": {name: round(value, 4) for name, value in timings.items()},
        "memory_mb": memory_mb,
        "mega_world": {
            "networks": mega_meta.size,
            "ixps": 65,
            "columns_nbytes": world_nbytes,
        },
        "transport": {
            "trials": TRANSPORT_TRIALS,
            "pickle_dispatch_ms_per_trial": round(
                pickle_dispatch_s / TRANSPORT_TRIALS * 1000, 3
            ),
            "shm_dispatch_ms_per_trial": round(
                shm_dispatch_s / TRANSPORT_TRIALS * 1000, 3
            ),
            "speedup_shm_vs_pickle": round(
                pickle_dispatch_s / shm_dispatch_s, 2
            ),
        },
        "detection": {
            "candidates": len(batch_measurements),
            "replies": sum(m.reply_count() for m in batch_measurements),
            "analyzed": len(report.passed),
        },
        "ensemble_mini3": {
            "trials": len(ensemble_result.trials),
            "precision_mean": round(ensemble_stats["precision"].mean, 4),
            "precision_ci95": round(ensemble_stats["precision"].half_width, 4),
            "recall_mean": round(ensemble_stats["recall"].mean, 4),
            "recall_ci95": round(ensemble_stats["recall"].half_width, 4),
        },
        "offload": {
            "expansion_steps": [s.ixp for s in steps],
            "candidates": groups.candidate_count(),
            "max_offload_inbound": round(max_in, 4),
            "max_offload_outbound": round(max_out, 4),
        },
        "economics_ensemble_small": {
            "trials": len(economics_ensemble.trials),
            "savings_mean": round(economics_stats["savings_fraction"].mean, 4),
            "savings_ci95": round(
                economics_stats["savings_fraction"].half_width, 4
            ),
            "decay_rate_mean": round(economics_stats["decay_rate"].mean, 4),
            "viable_votes": round(viable.mean * viable.n),
        },
        "failover_scenario_small": {
            "trials": len(failover_ensemble.trials),
            "ideal_savings_mean": round(
                failover_stats["ideal_savings"].mean, 4
            ),
            "realized_savings_mean": round(
                failover_stats["realized_savings"].mean, 4
            ),
            "billing_error_mean": round(
                failover_stats["billing_error"].mean, 4
            ),
            "dark_fraction_mean": round(
                failover_stats["dark_fraction"].mean, 4
            ),
        },
        "joint_study_small": {
            "trials": len(joint_ensemble.trials),
            "precision_mean": round(joint_stats["precision"].mean, 4),
            "recall_mean": round(joint_stats["recall"].mean, 4),
            "detected_offload_mean": round(
                joint_stats["detected_fraction"].mean, 4
            ),
            "offload_gap_mean": round(joint_stats["offload_gap"].mean, 4),
            "realized_savings_mean": round(
                joint_stats["realized_savings"].mean, 4
            ),
            "billing_error_mean": round(joint_stats["billing_error"].mean, 4),
        },
    }
    payload["offload_ensemble_batched"] = {
        "trials": len(batched_ensemble.trials),
        "inbound_mean": round(batched_stats["inbound_fraction"].mean, 4),
        "outbound_mean": round(batched_stats["outbound_fraction"].mean, 4),
        "rank1_ixp": batched_consensus[0][0] if batched_consensus else None,
    }
    if not quick:
        payload["detection_ensemble_256"] = {
            "trials": len(big_ensemble.trials),
            "precision_mean": round(big_ensemble_stats["precision"].mean, 4),
            "recall_mean": round(big_ensemble_stats["recall"].mean, 4),
        }
        # The trial-batch engine must reproduce the per-trial ensemble
        # exactly (same seeds, same variant), so the two aggregates agree
        # to the last digit; the baseline records that invariant.
        payload["offload_batched_equals_pertrial"] = (
            batched_stats == offload_stats
            and batched_consensus == offload_consensus
        )
        payload["offload_ensemble_speedup_batched_vs_pertrial"] = round(
            timings["offload_ensemble_16trials"]
            / timings["offload_ensemble_16trials_batched"], 2
        )
        rank1_ixp, rank1_agreement = (
            offload_consensus[0] if offload_consensus else (None, None)
        )
        payload["offload_ensemble"] = {
            "trials": len(offload_ensemble.trials),
            "inbound_mean": round(offload_stats["inbound_fraction"].mean, 4),
            "inbound_ci95": round(
                offload_stats["inbound_fraction"].half_width, 4
            ),
            "outbound_mean": round(offload_stats["outbound_fraction"].mean, 4),
            "outbound_ci95": round(
                offload_stats["outbound_fraction"].half_width, 4
            ),
            "rank1_ixp": rank1_ixp,
            "rank1_agreement": (
                None if rank1_agreement is None else round(rank1_agreement, 4)
            ),
        }
    return payload


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="bench_speed",
        description="Time every study hot path and write BENCH_speed.json.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the per-trial paper-scale offload ensemble and the "
        "256-trial detection campaign; print the payload without "
        "overwriting the baseline",
    )
    args = parser.parse_args(argv)
    payload = collect_payload(quick=args.quick)
    if not args.quick:
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
