"""Command-line entry points: the ``repro <command>`` dispatcher.

Every study a command runs is a request of the study registry
(:mod:`repro.experiments.requests`): one flag generator turns a kind's
schema into ``--`` plus each request key with ``_`` → ``-``, so a command
line and a ``POST /studies`` body describe the same run and share its
result fingerprint, and :func:`~repro.experiments.requests.render_report`
prints every report.

* ``repro study <kind>`` runs a multi-seed study of any registry kind
  (``--seeds N --seed-offset K``; resumable ``--out`` artifacts);
* ``repro scenarios list|run`` fronts the scenario library
  (:mod:`repro.experiments.scenarios`), with the scenario schema's flags;
* ``repro detect`` and ``repro offload`` are one-seed detection and
  offload requests: ``--seed S`` is ``{"seeds": [S]}``;
* ``repro report`` runs one-seed detection, offload and economics
  requests and writes their reports as one text;
* ``repro econ`` evaluates the Section 5 closed forms, with the decay
  rate ``b`` given or fitted by one economics trial.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Iterable

from repro.analysis.tables import render_table
from repro.core.economics import CostModel, CostParameters, viability_condition

if TYPE_CHECKING:  # the study stack is imported lazily, per command
    from repro.experiments.engine import Study, StudyResult
    from repro.experiments.requests import Option

#: ``repro report``'s sections: banner, study kind, and its preset with
#: and without ``--small``.
_REPORT_SECTIONS = (
    ("REMOTE PEERING DETECTION STUDY", "detection", "mini3", "paper22"),
    ("TRAFFIC OFFLOAD STUDY", "offload", "small", "paper65"),
    ("ECONOMIC VIABILITY (Section 5)", "economics", "small", "paper65"),
)


def detect_main(argv: list[str] | None = None) -> int:
    """``repro detect`` — one seed of the Section 3 detection study."""
    return _single_run("detect", "detection", argv, per_ixp=True)


def offload_main(argv: list[str] | None = None) -> int:
    """``repro offload`` — one seed of the Section 4 offload study."""
    return _single_run("offload", "offload", argv)


def _single_run(
    command: str, kind: str, argv: list[str] | None, **flags: bool
) -> int:
    """Run ``repro <command>``: a one-seed request of study ``kind``."""
    from repro.experiments.requests import STUDIES, render_report

    options = STUDIES[kind].options
    parser = argparse.ArgumentParser(
        prog=f"repro {command}",
        description=f"{STUDIES[kind].about}, at one seed.  Every flag but "
        f"--seed is a request key, as in `repro study {kind}`.",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="trial seed (default: 42)"
    )
    _add_request_flags(parser, options)
    args = parser.parse_args(argv)
    config = {**_request_config(args, options), "seeds": [args.seed]}
    study, result = _run_request(parser, kind, config)
    print(render_report(study, result, **flags))
    return 0


def report_main(argv: list[str] | None = None) -> int:
    """Run every study at one seed and write one combined report."""
    from repro.experiments.requests import render_report

    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Run the detection, offload and economics studies at "
        "one seed and write a combined report.",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="trial seed (default: 42)"
    )
    parser.add_argument(
        "--output", "-o", default="-",
        help="output file (default: stdout)",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="use the small presets (mini3 and the ~3k-network offload "
        "world) instead of paper22 and paper65",
    )
    args = parser.parse_args(argv)

    sections = []
    for banner, kind, small, full in _REPORT_SECTIONS:
        study, result = _run_request(parser, kind, {
            "preset": small if args.small else full,
            "seeds": [args.seed],
            "workers": 1,
        })
        sections.append(f"{banner}\n\n{render_report(study, result)}")
    text = ("\n\n" + "=" * 72 + "\n\n").join(sections)
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
        prog="repro econ",
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
        help="transit decay rate b; default: fit it from one paper65 "
        "economics trial",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="seed of the fitted trial (default: 42)",
    )
    args = parser.parse_args(argv)

    b = args.decay
    if b is None:
        _, result = _run_request(parser, "economics", {
            "preset": "paper65", "seeds": [args.seed], "workers": 1,
        })
        if result.failures:
            print(f"Note: {result.coverage_note()}", file=sys.stderr)
            return 1
        (trial,) = result.trials
        b = trial.decay_rate
        print(f"fitted b = {b:.3f} from the offload world "
              f"(floor {trial.decay_floor:.0%} of traffic stays on transit)")
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
        prog="repro serve",
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
    from repro.experiments.requests import SCENARIO_OPTIONS, render_report
    from repro.experiments.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description="Named, parameterized study grids: the ROADMAP's "
        "scenario backlog as runnable presets on the study engine.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list", help="show every registered scenario")
    runner = sub.add_parser("run", help="run one scenario preset")
    runner.add_argument("name", help="scenario name (see `scenarios list`)")
    options = [o for o in SCENARIO_OPTIONS if o.key != "name"]
    _add_seed_flags(runner, 16)
    _add_request_flags(runner, options)
    _add_out_flag(runner)
    args = parser.parse_args(argv)

    if args.action == "list":
        rows = []
        for scenario in SCENARIOS.values():
            study = scenario.grid("small")
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
    study, result = _run_request(runner, "scenario", {
        **_request_config(args, options),
        "name": args.name,
        "seeds": {"count": args.seeds, "offset": args.seed_offset},
    }, args.out)
    print(render_report(study, result))
    return 0


def study_main(argv: list[str] | None = None) -> int:
    """``repro study <kind> [--key value ...]`` — one flag per request key."""
    from repro.experiments.requests import STUDIES, render_report, request_kinds

    parser = argparse.ArgumentParser(
        prog="repro study",
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
        _add_request_flags(command, kind.options)
        for flag, text in kind.flags:
            command.add_argument(
                "--" + flag.replace("_", "-"), action="store_true", help=text
            )
        _add_out_flag(command)
        commands[name] = command
    args = parser.parse_args(argv)

    kind = STUDIES[args.kind]
    config = _request_config(args, kind.options)
    config["seeds"] = {"count": args.seeds, "offset": args.seed_offset}
    flags = {flag: getattr(args, flag) for flag, _ in kind.flags}
    strict_transport = flags.pop("strict_transport", False)
    study, result = _run_request(
        commands[args.kind], args.kind, config, args.out
    )
    print(render_report(study, result, **flags))
    if strict_transport and result.transport_fallbacks:
        print(
            f"error: --strict-transport set and {result.transport_fallbacks} "
            "trial(s) fell back to pickle transport",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_request_flags(
    parser: argparse.ArgumentParser, options: Iterable[Option]
) -> None:
    """One ``--key`` flag per request option, ``_`` written as ``-``.

    Every flag defaults to None, so an unset flag leaves its key out of
    the request and the registry's default applies.
    """
    for option in options:
        default = option.default
        if isinstance(default, tuple):
            default = " ".join(map(str, default))
        parser.add_argument(
            "--" + option.key.replace("_", "-"),
            type=option.type,
            nargs="+" if option.many else None,
            choices=option.choices or None,
            help=option.help if default is None
            else f"{option.help} (default: {default})",
        )


def _request_config(
    args: argparse.Namespace, options: Iterable[Option]
) -> dict[str, Any]:
    """The request keys a command line set."""
    return {
        option.key: getattr(args, option.key)
        for option in options
        if getattr(args, option.key) is not None
    }


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
    out_dir: str | None = None,
) -> tuple[Study, StudyResult]:
    """Resolve one request and run it; returns the study and its result.

    A malformed request is a usage error of ``parser`` (exit status 2).
    """
    from dataclasses import replace

    from repro.errors import ConfigurationError
    from repro.experiments.engine import run_study
    from repro.experiments.requests import resolve

    try:
        _, study, study_config = resolve(kind, config)
    except ConfigurationError as error:
        parser.error(str(error))
    return study, run_study(study, replace(study_config, out_dir=out_dir))


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
