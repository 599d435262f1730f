"""Command-line entry points: ``repro-detect``, ``repro-offload``,
``repro-econ`` — and the ``repro <command>`` dispatcher that fronts them
all.

The single-world commands build one synthetic world, run the study and
print the paper-shaped report as plain text.  The multi-seed front end is
``repro study <kind>`` for every kind of the study registry
(:mod:`repro.experiments.requests`): each flag is ``--`` plus a request
key with ``_`` → ``-``, so a command line and a ``POST /studies`` body
describe the same run and share its result fingerprint.  Every study runs
on the shared engine (seed × grid expansion, per-variant world caching,
process-pool fan-out, resumable ``--out`` artifacts).  ``repro scenarios
list|run`` fronts the scenario library
(:mod:`repro.experiments.scenarios`): named variant grids, reported
through the same registry renderers.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any

from repro.analysis.tables import render_table
from repro.core.detection import CampaignConfig, ProbeCampaign
from repro.core.detection.classify import BAND_LABELS
from repro.core.economics import (
    CostModel,
    CostParameters,
    fit_exponential_decay,
    viability_condition,
)
from repro.core.offload import (
    GROUP_LABELS,
    OffloadEstimator,
    PeerGroups,
    greedy_expansion,
)
from repro.ixp.catalog import paper_catalog
from repro.sim import (
    DetectionWorldConfig,
    OffloadWorldConfig,
    build_detection_world,
    build_offload_world,
)
from repro.units import format_rate

if TYPE_CHECKING:  # the study stack is imported lazily, per command
    from repro.experiments.engine import StudyResult


def detect_main(argv: list[str] | None = None) -> int:
    """Run the Section 3 detection study and print per-IXP findings."""
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Ping-based detection of remote peering at the 22 "
        "studied IXPs (synthetic world).",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--threshold-ms", type=float, default=10.0,
        help="remoteness threshold (paper: 10 ms)",
    )
    parser.add_argument(
        "--ixps", nargs="*", default=None,
        help="restrict to these IXP acronyms (default: all 22)",
    )
    args = parser.parse_args(argv)

    specs = paper_catalog()
    if args.ixps:
        specs = tuple(s for s in specs if s.acronym in set(args.ixps))
        if not specs:
            parser.error("no matching IXPs")
    world = build_detection_world(
        DetectionWorldConfig(seed=args.seed, specs=specs)
    )
    config = CampaignConfig(
        seed=args.seed, remoteness_threshold_ms=args.threshold_ms
    )
    result = ProbeCampaign(world, config).run()

    bands = result.band_counts_by_ixp()
    rows = []
    for acronym in sorted(bands):
        counts = bands[acronym]
        remote = sum(v for k, v in counts.items() if k != "<10ms")
        rows.append([acronym, *(counts[label] for label in BAND_LABELS), remote])
    print(render_table(
        ["IXP", *BAND_LABELS, "remote"],
        rows,
        title="Analyzed interfaces by minimum-RTT band",
    ))
    print()
    print(f"analyzed interfaces : {result.analyzed_count()}")
    print(f"identified networks : {len(result.identified_networks())}")
    print(f"remotely peering    : {len(result.remotely_peering_networks())}")
    print(f"IXPs with remote peering: "
          f"{len(result.ixps_with_remote_peering())}/{len(result.studied_ixps())} "
          f"({result.remote_spread_fraction():.0%})")
    return 0


def offload_main(argv: list[str] | None = None) -> int:
    """Run the Section 4 offload study and print the greedy expansion."""
    parser = argparse.ArgumentParser(
        prog="repro-offload",
        description="Transit-offload potential of a RedIRIS-like NREN over "
        "the 65 Euro-IX IXPs (synthetic world).",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--group", type=int, default=4, choices=(1, 2, 3, 4),
        help="peer group (paper Section 4.2)",
    )
    parser.add_argument(
        "--max-ixps", type=int, default=10, help="greedy expansion depth"
    )
    args = parser.parse_args(argv)

    world = build_offload_world(OffloadWorldConfig(seed=args.seed))
    estimator = OffloadEstimator(world, PeerGroups.build(world))
    all_ixps = estimator.reachable_ixps()
    fi, fo = estimator.offload_fractions(all_ixps, args.group)
    print(f"peer group {args.group} ({GROUP_LABELS[args.group]})")
    print(f"candidates after exclusions: {estimator.groups.candidate_count()}")
    print(f"max offload at {len(all_ixps)} IXPs: "
          f"inbound {fi:.1%}, outbound {fo:.1%}")
    print()
    rows = []
    for step in greedy_expansion(estimator, args.group, max_ixps=args.max_ixps):
        rows.append([
            step.rank,
            step.ixp,
            format_rate(step.gained_total_bps),
            format_rate(step.remaining_total_bps),
        ])
    print(render_table(
        ["#", "IXP", "gained", "remaining transit"],
        rows,
        title="Greedy IXP expansion",
    ))
    return 0


def report_main(argv: list[str] | None = None) -> int:
    """Run every study and write one combined plain-text report."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Run the detection, offload, and economics studies and "
        "write a combined report.",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--output", "-o", default="-",
        help="output file (default: stdout)",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="use the small scenarios (seconds instead of ~20 s)",
    )
    args = parser.parse_args(argv)

    from repro.core.detection import CampaignConfig, ProbeCampaign
    from repro.reporting import (
        detection_report,
        economics_report,
        offload_report,
    )
    from repro.sim import scenarios

    world = scenarios.mini3(args.seed) if args.small else scenarios.paper22(args.seed)
    result = ProbeCampaign(world, CampaignConfig(seed=args.seed)).run()
    offload_world = (
        scenarios.rediris_small(args.seed) if args.small
        else scenarios.rediris(args.seed)
    )
    estimator = OffloadEstimator(offload_world, PeerGroups.build(offload_world))

    divider = "\n\n" + "=" * 72 + "\n\n"
    text = divider.join([
        detection_report(world, result),
        offload_report(estimator),
        economics_report(estimator),
    ])
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    return 0


def econ_main(argv: list[str] | None = None) -> int:
    """Evaluate the Section 5 viability condition for given prices."""
    parser = argparse.ArgumentParser(
        prog="repro-econ",
        description="Economic viability of remote peering vs transit and "
        "direct peering (paper eq. 14).",
    )
    parser.add_argument("--transit-price", "-p", type=float, default=5.0)
    parser.add_argument("--direct-fixed", "-g", type=float, default=1.0)
    parser.add_argument("--direct-unit", "-u", type=float, default=0.5)
    parser.add_argument("--remote-fixed", "-H", type=float, default=0.25)
    parser.add_argument("--remote-unit", "-v", type=float, default=1.5)
    parser.add_argument(
        "--decay", "-b", type=float, default=None,
        help="transit decay rate b; default: fit it from the offload world",
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    b = args.decay
    if b is None:
        import numpy as np

        from repro.core.offload import remaining_traffic_series

        world = build_offload_world(OffloadWorldConfig(seed=args.seed))
        estimator = OffloadEstimator(world, PeerGroups.build(world))
        series = remaining_traffic_series(estimator, 4, max_ixps=20)
        fit = fit_exponential_decay(np.array(series))
        b = fit.rate
        print(f"fitted b = {b:.3f} from the offload world "
              f"(floor {fit.floor:.0%} of traffic stays on transit)")
    params = CostParameters(
        p=args.transit_price, g=args.direct_fixed, u=args.direct_unit,
        h=args.remote_fixed, v=args.remote_unit, b=b,
    )
    model = CostModel(params)
    verdict = viability_condition(params)
    print(f"optimal direct-peering IXPs  ñ = {model.optimal_direct():.2f}")
    print(f"optimal remote extension     m̃ = {model.optimal_remote_extra():.2f}")
    print(f"viability ratio g(p-v)/(h(p-u)) = {verdict.ratio:.2f} "
          f"vs e^b = {verdict.threshold:.2f}")
    print(f"remote peering viable: {'YES' if verdict.viable else 'NO'}")
    return 0


def lint_main(argv: list[str] | None = None) -> int:
    """``repro lint`` — the determinism & draw-stream static analysis.

    Lazy import: the devtools package is developer tooling and must not
    slow down study start-up.
    """
    from repro.devtools.lint.cli import lint_main as run_lint

    return run_lint(argv)


def serve_main(argv: list[str] | None = None) -> int:
    """``repro serve`` — the study engine as a long-running HTTP service.

    Lazy import: the serve package spins up scheduler threads and an
    asyncio loop, none of which belongs in study start-up.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve studies over HTTP: POST /studies submits a "
        "declarative study request onto a priority job queue, GET "
        "/studies/{id}?watch=1 streams progress, and repeated identical "
        "submissions are answered from the content-addressed result "
        "store without recomputing a single trial.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    parser.add_argument(
        "--port", type=int, default=8072,
        help="TCP port (0 = ephemeral; default: 8072)",
    )
    parser.add_argument(
        "--store", default="runs/store", metavar="DIR",
        help="content-addressed artifact store + job journal "
        "(default: runs/store)",
    )
    parser.add_argument(
        "--threads", type=int, default=2,
        help="concurrent studies (each may fan out its own trial "
        "processes; default: 2)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the end-to-end service smoke (ephemeral port, temp "
        "store) and exit 0 on success instead of serving",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        from repro.serve.smoke import run_smoke

        return run_smoke()
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    from repro.serve import serve

    return serve(
        host=args.host, port=args.port, store_dir=args.store,
        threads=args.threads,
    )


def scenarios_main(argv: list[str] | None = None) -> int:
    """``repro scenarios list|run <name>`` — the scenario-library front end."""
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Named, parameterized study grids: the ROADMAP's "
        "scenario backlog as runnable presets on the study engine.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list", help="show every registered scenario")
    runner = sub.add_parser("run", help="run one scenario preset")
    runner.add_argument("name", help="scenario name (see `scenarios list`)")
    runner.add_argument(
        "--preset", choices=("small", "paper"), default="small",
        help="world scale (default: small, seconds; paper = full scale)",
    )
    _add_seed_flags(runner, 16)
    runner.add_argument(
        "--workers", type=int, default=0,
        help="trial processes (0 = one per core, 1 = inline)",
    )
    _add_out_flag(runner)
    args = parser.parse_args(argv)

    from repro.experiments.scenarios import SCENARIOS

    if args.action == "list":
        rows = []
        for scenario in SCENARIOS.values():
            study = scenario.build(preset="small", seeds=(0,)).study
            rows.append([
                scenario.name,
                study.name,
                len(study.variant_names()),
                scenario.description,
            ])
        print(render_table(
            ["scenario", "study", "variants", "description"],
            rows,
            title="Scenario library (presets: small, paper)",
        ))
        return 0
    _run_request(runner, "scenario", {
        "name": args.name,
        "preset": args.preset,
        "seeds": {"count": args.seeds, "offset": args.seed_offset},
        "workers": args.workers,
    }, args.out)
    return 0


def study_main(argv: list[str] | None = None) -> int:
    """``repro study <kind> [--key value ...]`` — one flag per request key."""
    from repro.experiments.requests import STUDIES, request_kinds

    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Run a multi-seed study of the study registry.  Every "
        "flag is a request key (--max-ixps is max_ixps), so the same "
        "study submitted to `repro serve` shares this run's fingerprint.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="kind")
    commands = {}
    for name in request_kinds():
        kind = STUDIES[name]
        command = sub.add_parser(
            name, help=kind.about, description=kind.about
        )
        _add_seed_flags(command, kind.seeds)
        for option in kind.options:
            default = option.default
            if isinstance(default, tuple):
                default = " ".join(map(str, default))
            command.add_argument(
                "--" + option.key.replace("_", "-"),
                type=option.type,
                nargs="+" if option.many else None,
                choices=option.choices or None,
                help=option.help if default is None
                else f"{option.help} (default: {default})",
            )
        for flag, text in kind.flags:
            command.add_argument(
                "--" + flag.replace("_", "-"), action="store_true", help=text
            )
        _add_out_flag(command)
        commands[name] = command
    args = parser.parse_args(argv)

    kind = STUDIES[args.kind]
    config = {
        option.key: getattr(args, option.key)
        for option in kind.options
        if getattr(args, option.key) is not None
    }
    config["seeds"] = {"count": args.seeds, "offset": args.seed_offset}
    flags = {flag: getattr(args, flag) for flag, _ in kind.flags}
    strict_transport = flags.pop("strict_transport", False)
    result = _run_request(commands[args.kind], args.kind, config, args.out,
                          **flags)
    if strict_transport and result.transport_fallbacks:
        print(
            f"error: --strict-transport set and {result.transport_fallbacks} "
            "trial(s) fell back to pickle transport",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_seed_flags(parser: argparse.ArgumentParser, count: int) -> None:
    parser.add_argument(
        "--seeds", type=int, default=count,
        help=f"number of trial seeds (default: {count})",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0,
        help="first seed (seeds are offset..offset+N-1)",
    )


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory: completed trials are written as JSONL "
        "and skipped on rerun (resumable studies)",
    )


def _run_request(
    parser: argparse.ArgumentParser,
    kind: str,
    config: dict[str, Any],
    out_dir: str | None,
    **flags: bool,
) -> StudyResult:
    """Resolve one request, run it and print its report; returns the result.

    A malformed request is a usage error of ``parser`` (exit status 2).
    """
    from dataclasses import replace

    from repro.errors import ConfigurationError
    from repro.experiments.engine import run_study
    from repro.experiments.requests import render_report, resolve

    try:
        _, study, study_config = resolve(kind, config)
    except ConfigurationError as error:
        parser.error(str(error))
    result = run_study(study, replace(study_config, out_dir=out_dir))
    print(render_report(study, result, **flags))
    return result


#: Subcommands of the ``repro`` dispatcher.
_COMMANDS = {
    "detect": detect_main,
    "offload": offload_main,
    "econ": econ_main,
    "report": report_main,
    "scenarios": scenarios_main,
    "serve": serve_main,
    "study": study_main,
    "lint": lint_main,
}


def main(argv: list[str] | None = None) -> int:
    """``repro <command> [args...]`` — dispatch to the study entry points."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Remote-peering reproduction studies.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    parsed = parser.parse_args(argv)
    return _COMMANDS[parsed.command](parsed.args)


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
