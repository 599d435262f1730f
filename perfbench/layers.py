"""The benchmark's metric catalog and the layer wrappers behind its trace.

``END_TO_END`` holds what a user of the program sees (printed with
``--trace 0``); ``PER_LAYER`` breaks the same runs down by layer (printed
with ``--trace 1``).  Every per-layer metric names the end-to-end metrics
it should move (``moves``) and the workloads it should move them on
(``on``); on every other workload the prediction for a change confined to
that layer is *no change* (``no_change_on``).

Unless its unit says otherwise, a per-layer ``_s`` metric is *self time*
(span minus the child spans it covers) summed over the traced pass and
divided by the trials that pass executed (``s/trial``).
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass
from statistics import fmean
from typing import Any

from spans import EXECUTE_SPAN, Span, Tracer, root_coverage, self_times

DETECTION = "detection-batch"
ECONOMICS = "economics-paper65"
MEGA = "mega-shm"
SERVE = "serve-mixed"
WORKLOADS = (DETECTION, ECONOMICS, MEGA, SERVE)
STUDIES = (DETECTION, ECONOMICS, MEGA)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()

    @property
    def no_change_on(self) -> tuple[str, ...]:
        return tuple(w for w in WORKLOADS if w not in self.on)


#: Bounds: how much worse than the parent's median a metric may read
#: before a change counts as a regression.  On a shared 2-CPU host the
#: CPU's speed swings by up to ~1.8x for seconds at a time, and run
#: medians of every timing spread by 5-20% across seeds, so timings get
#: the widest bound; memory is steady.
END_TO_END = (
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("studies_per_s", "1/s", "higher", 0.25),
    Metric("cold_latency_p50_s", "s", "lower", 0.25),
    Metric("cold_latency_tail_s", "s", "lower", 0.25),
    Metric("warm_latency_p50_s", "s", "lower", 0.25),
    Metric("warm_latency_tail_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

_TRIALS = ("trials_per_s",)
_COLD = ("cold_latency_p50_s",)
_WARM = ("warm_latency_p50_s",)


def _layer(name: str, unit: str, better: str,
           moves: tuple[str, ...], on: tuple[str, ...]) -> Metric:
    return Metric(name, unit, better, None, moves, on)


PER_LAYER = (
    _layer("sim.detection_world.build_s", "s/trial", "lower", _TRIALS, (DETECTION,)),
    _layer("sim.detection_world.builds", "builds/trial", "lower", _TRIALS, (DETECTION,)),
    _layer("core.detection.campaign.collect_s", "s/trial", "lower", _TRIALS, (DETECTION,)),
    _layer("core.detection.campaign.replies", "count", "higher", _TRIALS, (DETECTION,)),
    _layer("core.detection.campaign.candidates", "count", "higher", _TRIALS, (DETECTION,)),
    _layer("core.detection.filters.run_s", "s/trial", "lower", _TRIALS, (DETECTION,)),
    _layer("core.detection.filters.pass_ratio", "ratio", "higher", _TRIALS, (DETECTION,)),
    _layer("core.detection.validation.validate_s", "s/trial", "lower", _TRIALS, (DETECTION,)),
    _layer("sim.offload_batch.build_views_s", "s/trial", "lower", _TRIALS, (ECONOMICS,)),
    _layer("sim.offload_batch.seeds_per_call", "count", "higher", _TRIALS, (ECONOMICS,)),
    _layer("core.offload.peergroups.build_s", "s/trial", "lower", _TRIALS, (ECONOMICS,)),
    _layer("core.offload.estimator_s", "s/trial", "lower", _TRIALS, (ECONOMICS,)),
    _layer("core.offload.greedy.series_s", "s/trial", "lower", _TRIALS, (ECONOMICS,)),
    _layer("core.economics.fitting.fit_s", "s/trial", "lower",
           _TRIALS + ("cold_latency_p50_s", "cold_latency_tail_s"), (ECONOMICS, SERVE)),
    _layer("netflow.billing.report_s", "s/trial", "lower",
           _TRIALS + ("cold_latency_p50_s", "cold_latency_tail_s"), (ECONOMICS, SERVE)),
    _layer("sim.megatopo.build_s", "s/trial", "lower", _TRIALS + ("peak_rss_mb",), (MEGA,)),
    _layer("sim.megatopo.networks_per_s", "1/s", "higher", _TRIALS + ("peak_rss_mb",), (MEGA,)),
    _layer("experiments.transport.create_s", "s/trial", "lower", _TRIALS, (MEGA,)),
    _layer("experiments.transport.attach_s", "s/trial", "lower", _TRIALS, (MEGA,)),
    _layer("experiments.transport.bytes_published", "B", "lower", _TRIALS, (MEGA,)),
    _layer("experiments.transport.fallbacks", "count", "lower", _TRIALS, (MEGA,)),
    _layer("experiments.mega.greedy_s", "s/trial", "lower", _TRIALS, (MEGA,)),
    _layer("experiments.scheduler.self_s", "s/trial", "lower", _TRIALS, STUDIES),
    _layer("experiments.scheduler.batch_fallbacks", "count", "lower", _TRIALS,
           (DETECTION, ECONOMICS)),
    _layer("serve.jobs.resolve_s", "s/call", "lower", _COLD + _WARM, (SERVE,)),
    _layer("experiments.scheduler.submit_s", "s/call", "lower", _COLD + _WARM, (SERVE,)),
    _layer("experiments.scheduler.queue_wait_s", "s/job", "lower", _COLD + _WARM, (SERVE,)),
    _layer("experiments.scheduler.execute_cold_s", "s/job", "lower",
           _COLD + ("cold_latency_tail_s",), WORKLOADS),
    _layer("experiments.scheduler.execute_warm_s", "s/job", "lower",
           _WARM + ("warm_latency_tail_s",), WORKLOADS),
    _layer("serve.watch_wait_s", "s/job", "lower", _COLD + _WARM, (SERVE,)),
    _layer("serve.store.rows_s", "s/call", "lower", _WARM + ("warm_latency_tail_s",), (SERVE,)),
    _layer("experiments.scheduler.store_hit_ratio", "ratio", "higher",
           _WARM + ("warm_latency_tail_s",), (SERVE,)),
    _layer("failed_share", "ratio", "lower", ("studies_per_s",), WORKLOADS),
    _layer("trace.overhead_s", "s", "lower", (), ()),
    _layer("trace.span_coverage", "ratio", "higher", (), ()),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are made from.

    Module-level functions are wrapped in the module the *caller* looks
    them up in (``from x import f`` binds ``f`` in the caller's module);
    methods are wrapped on their class.
    """
    from repro.core.detection.campaign import ProbeCampaign
    from repro.core.detection.filters import FilterPipeline
    from repro.core.offload.peergroups import PeerGroups
    from repro.core.offload.potential import OffloadEstimator

    economics = importlib.import_module("repro.experiments.economics")
    ensemble = importlib.import_module("repro.experiments.ensemble")
    mega = importlib.import_module("repro.experiments.mega")
    scheduler = importlib.import_module("repro.experiments.scheduler")
    transport = importlib.import_module("repro.experiments.transport")
    app = importlib.import_module("repro.serve.app")
    store = importlib.import_module("repro.serve.store")

    wrap = tracer.wrap
    wrap(ensemble, "build_detection_world", "sim.detection_world.build")
    wrap(ProbeCampaign, "collect", "core.detection.campaign.collect",
         describe=lambda measured, *_a, **_k: {
             "candidates": len(measured),
             "replies": sum(m.reply_count() for m in measured),
         })
    wrap(FilterPipeline, "run", "core.detection.filters.run",
         describe=lambda report, _self, measured, *_a, **_k: {
             "passed": len(report.passed), "candidates": len(measured),
         })
    wrap(ensemble, "validate_against_truth", "core.detection.validation.validate")
    wrap(economics, "build_offload_views", "sim.offload_batch.build_views",
         describe=lambda views, *_a, **_k: {"seeds": len(views)})
    wrap(PeerGroups, "build", "core.offload.peergroups.build")
    for method in ("__init__", "reachable_ixps", "offload_fractions", "mask_for"):
        wrap(OffloadEstimator, method, "core.offload.estimator")
    wrap(economics, "remaining_traffic_series", "core.offload.greedy.series")
    wrap(economics, "fit_exponential_decay", "core.economics.fitting.fit")
    wrap(economics, "offload_billing_report", "netflow.billing.report")
    wrap(mega, "build_mega_world", "sim.megatopo.build",
         describe=lambda world, *_a, **_k: {"networks": len(world)})
    wrap(transport.SegmentManager, "create", "experiments.transport.create",
         describe=lambda descriptor, *_a, **_k: {"bytes": descriptor.nbytes})
    wrap(transport, "attach_columns", "experiments.transport.attach")
    wrap(mega, "greedy_coverage", "experiments.mega.greedy")
    wrap(scheduler, "execute_study", EXECUTE_SPAN, describe=_execute_attrs)
    wrap(scheduler.StudyScheduler, "submit", "experiments.scheduler.submit")
    wrap(app, "resolve_request", "serve.jobs.resolve")
    wrap(store.ResultStore, "rows", "serve.store.rows", generator=True)


def _execute_attrs(result: Any, *_args: Any, **_kwargs: Any) -> dict[str, int]:
    return {
        "trials": len(result.trials) + len(result.failures),
        "resumed": result.resumed,
        "failures": len(result.failures),
        "batch_fallbacks": result.batch_fallbacks,
        "transport_fallbacks": result.transport_fallbacks,
    }


def span_metrics(spans: list[Span], owner_pid: int, wall: float) -> dict[str, float]:
    """The per-layer metrics one traced pass's spans determine."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    executes = [s for s in by_name[EXECUTE_SPAN] if s.attrs and "trials" in s.attrs]
    cold = [s for s in executes if s.attrs["resumed"] < s.attrs["trials"]]
    warm = [s for s in executes if s.attrs["resumed"] == s.attrs["trials"]]
    executed = sum(s.attrs["trials"] - s.attrs["resumed"] for s in cold)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def self_total(found: list[Span]) -> float:
        return sum(selfs[(s.pid, s.id)] for s in found)

    def per_trial(name: str) -> float:
        return ratio(self_total(by_name[name]), executed)

    def per_call(name: str) -> float:
        return ratio(self_total(by_name[name]), len(by_name[name]))

    def attr_total(found: list[Span], key: str) -> float:
        return float(sum((s.attrs or {}).get(key, 0) for s in found))

    def attr_mean(name: str, key: str) -> float:
        return ratio(attr_total(by_name[name], key), len(by_name[name]))

    collect = "core.detection.campaign.collect"
    filters = "core.detection.filters.run"
    views = "sim.offload_batch.build_views"
    mega_build = "sim.megatopo.build"
    return {
        "sim.detection_world.build_s": per_trial("sim.detection_world.build"),
        "sim.detection_world.builds": ratio(
            len(by_name["sim.detection_world.build"]), executed),
        "core.detection.campaign.collect_s": per_trial(collect),
        "core.detection.campaign.replies": attr_mean(collect, "replies"),
        "core.detection.campaign.candidates": attr_mean(collect, "candidates"),
        "core.detection.filters.run_s": per_trial(filters),
        "core.detection.filters.pass_ratio": ratio(
            attr_total(by_name[filters], "passed"),
            attr_total(by_name[filters], "candidates")),
        "core.detection.validation.validate_s": per_trial(
            "core.detection.validation.validate"),
        "sim.offload_batch.build_views_s": per_trial(views),
        "sim.offload_batch.seeds_per_call": attr_mean(views, "seeds"),
        "core.offload.peergroups.build_s": per_trial("core.offload.peergroups.build"),
        "core.offload.estimator_s": per_trial("core.offload.estimator"),
        "core.offload.greedy.series_s": per_trial("core.offload.greedy.series"),
        "core.economics.fitting.fit_s": per_trial("core.economics.fitting.fit"),
        "netflow.billing.report_s": per_trial("netflow.billing.report"),
        "sim.megatopo.build_s": per_trial(mega_build),
        "sim.megatopo.networks_per_s": ratio(
            attr_total(by_name[mega_build], "networks"),
            sum(s.duration for s in by_name[mega_build])),
        "experiments.transport.create_s": per_trial("experiments.transport.create"),
        "experiments.transport.attach_s": per_trial("experiments.transport.attach"),
        "experiments.transport.bytes_published": attr_mean(
            "experiments.transport.create", "bytes"),
        "experiments.transport.fallbacks": attr_total(executes, "transport_fallbacks"),
        "experiments.mega.greedy_s": per_trial("experiments.mega.greedy"),
        "experiments.scheduler.self_s": ratio(self_total(cold), executed),
        "experiments.scheduler.batch_fallbacks": attr_total(executes, "batch_fallbacks"),
        "experiments.scheduler.execute_cold_s": (
            fmean(s.duration for s in cold) if cold else 0.0),
        "experiments.scheduler.execute_warm_s": (
            fmean(s.duration for s in warm) if warm else 0.0),
        "serve.jobs.resolve_s": per_call("serve.jobs.resolve"),
        "experiments.scheduler.submit_s": per_call("experiments.scheduler.submit"),
        "serve.store.rows_s": per_call("serve.store.rows"),
        "trace.span_coverage": root_coverage(spans, owner_pid, wall),
    }


def per_layer_report(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0.0 for layers the workload never entered."""
    unknown = set(values) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics outside the catalog: {sorted(unknown)}")
    return {m.name: float(values.get(m.name, 0.0)) for m in PER_LAYER}
