"""One registry of study kinds: request schema, ``Study`` factory, report.

A *request* describes one study run as plain JSON-ready data — a study
kind plus a flat ``config`` object::

    {"study": "offload",
     "config": {"preset": "small", "groups": [1, 4],
                "seeds": {"count": 16}, "workers": 2}}

:data:`STUDIES` maps each study kind to three things: the typed schema of
its config keys (:class:`Option` entries), a factory from a validated
config to the kind's :class:`~repro.experiments.engine.Study`, and its
report, a renderer of :mod:`repro.reporting.ensembles`.
Every front end goes through it:

* ``repro study <kind>`` offers one flag per config key — ``--`` plus the
  key with ``_`` → ``-`` (``--seeds N --seed-offset K`` is the
  ``{"count": N, "offset": K}`` form of ``seeds``) — and resolves the
  flags with :func:`resolve`; ``repro detect`` and ``repro offload`` are
  the same requests at one seed (``--seed S`` is ``[S]``), and ``repro
  report`` and ``repro econ`` build one-seed requests of their own;
* ``POST /studies`` bodies are requests (:mod:`repro.serve.jobs`);
* ``repro scenarios run`` and ``{"study": "scenario"}`` requests resolve
  a named variant grid of :mod:`repro.experiments.scenarios` through the
  ``scenario`` schema below (every key but ``name`` is a flag);

and every finished run is reported by :func:`render_report`, which hands
the kind's renderer the run's one aggregate
(:func:`~repro.experiments.aggregate.aggregate`) and ends with the run's
:meth:`~repro.experiments.engine.StudyResult.coverage_note` whenever
there is one, so a quarantined trial, a fallback or a pool restart
always reaches the report.

Config keys (every key is optional; ``seeds`` is a list or
``{"count": N, "offset": K}`` and defaults to 16 seeds, 4 for ``mega``):

=========== ===========================================================
kind        keys
=========== ===========================================================
detection   ``preset`` (mini3|paper22), ``ixps``, ``threshold_ms``,
            engine keys
offload     ``preset`` (small|paper65), ``groups``, ``max_ixps``,
            ``member_tier2_fraction``, ``tier1_only_stub_fraction``,
            engine keys
economics   ``preset`` (small|paper65), ``group``, ``max_ixps``,
            ``transit_price``, ``direct_fixed``, ``direct_unit``,
            ``remote_fixed``, ``remote_unit``, ``price_per_mbps``,
            engine keys
joint       ``preset`` (small|paper), ``group``, ``remote_fraction``,
            ``price_per_mbps``, ``workers``
mega        ``preset`` (mega-smoke|mega), ``max_ixps``, ``workers``,
            ``transport`` (default ``shm``)
scenario    ``name``, ``preset`` (small|paper), engine keys
=========== ===========================================================

The engine keys are ``workers``, ``trial_timeout_s``, ``trial_retries``,
``trial_batch`` and ``transport``: :class:`~repro.experiments.engine.
StudyConfig` fields, passed through with its validation.  A misspelled
key, a wrong JSON type, a non-finite number or a value outside its
choices raises :class:`~repro.errors.ConfigurationError` naming the key
— a 400 over HTTP, a usage error on the CLI.

``failover`` is registered for its renderer only: it runs as the
``failover`` scenario and takes no request of its own.  A new study kind
is one more :class:`StudyKind` entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.offload import ALL_GROUPS
from repro.errors import ConfigurationError, EconomicsError
from repro.experiments.aggregate import aggregate
from repro.experiments.economics import EconomicsStudy, EconomicsVariant
from repro.experiments.engine import Study, StudyConfig, StudyResult
from repro.experiments.ensemble import DetectionStudy, grid_variants
from repro.experiments.joint import JointStudy, JointVariant
from repro.experiments.mega import MegaStudy, MegaVariant
from repro.experiments.offload import OffloadStudy, offload_grid_variants
from repro.experiments.scenarios import PRESETS, SCENARIOS
from repro.ixp.catalog import spec_by_acronym
from repro.reporting.ensembles import (
    render_economics_ensemble_report,
    render_ensemble_report,
    render_failover_ensemble_report,
    render_joint_ensemble_report,
    render_mega_report,
    render_offload_ensemble_report,
)
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.scenarios import (
    detection_preset_specs,
    joint_preset_configs,
    mega_preset_config,
    offload_preset_config,
)


@dataclass(frozen=True, slots=True)
class Option:
    """One config key of a request: its JSON type, default and help text.

    ``type`` is ``int``, ``float`` (which also takes JSON integers, but
    neither ``NaN`` nor ``±Infinity``) or ``str``.  A ``many`` key takes a
    non-empty list, deduplicated in order (a grid axis).  A key whose
    default is None also takes ``null``.
    """

    key: str
    type: type
    default: Any = None
    help: str = ""
    many: bool = False
    choices: tuple[Any, ...] = ()

    def parse(self, value: Any) -> Any:
        """The validated value of this key (ConfigurationError otherwise)."""
        if value is None and self.default is None:
            return None
        if not self.many:
            return self._scalar(value)
        if not isinstance(value, list) or not value:
            raise ConfigurationError(f"{self.key} must be a non-empty list")
        return tuple(dict.fromkeys(self._scalar(v) for v in value))

    def _scalar(self, value: Any) -> Any:
        accepted = (int, float) if self.type is float else self.type
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigurationError(
                f"{self.key} takes {self.type.__name__} values, "
                f"got {value!r}"
            )
        value = self.type(value)
        if self.type is float and not math.isfinite(value):
            raise ConfigurationError(
                f"{self.key} takes finite numbers, got {value!r}"
            )
        if self.choices and value not in self.choices:
            raise ConfigurationError(
                f"{self.key} must be one of "
                f"{', '.join(map(str, self.choices))}; got {value!r}"
            )
        return value


@dataclass(frozen=True, slots=True)
class StudyKind:
    """One registry entry: how a study kind is requested and reported.

    ``build`` turns a validated config — every key of ``options``, with
    defaults filled in — into the study; ``render(study, result, stats,
    **flags)`` reports a finished run of it from ``stats``, the run's
    :func:`~repro.experiments.aggregate.aggregate`.  ``flags`` are the
    CLI-only switches of ``repro study <kind>`` as (name, help) pairs:
    ``strict_transport`` makes the command fail on a transport fallback,
    any other switch is passed to ``render``.  A kind without ``build``
    is registered for its report only.
    """

    name: str
    about: str
    render: Callable[..., str]
    options: tuple[Option, ...] = ()
    build: Callable[[dict[str, Any]], Study] | None = None
    seeds: int = 16
    flags: tuple[tuple[str, str], ...] = ()


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_seeds(value: Any) -> tuple[int, ...]:
    """Seeds from either an explicit list or a ``{count, offset}`` range."""
    if isinstance(value, dict):
        unknown = sorted(set(value) - {"count", "offset"})
        if unknown:
            raise ConfigurationError(
                f"unknown seeds key(s) {', '.join(map(repr, unknown))} "
                "(expected count, offset)"
            )
        count = value.get("count")
        offset = value.get("offset", 0)
        if not _integer(count) or count < 1:
            raise ConfigurationError(
                "seeds.count must be a positive integer"
            )
        if not _integer(offset):
            raise ConfigurationError("seeds.offset must be an integer")
        return tuple(range(offset, offset + count))
    if isinstance(value, list) and value and all(map(_integer, value)):
        return tuple(value)
    raise ConfigurationError(
        "seeds must be a non-empty integer list or {count, offset}"
    )


# -- the engine keys: StudyConfig fields, shared by the kinds -----------------

_WORKERS = Option(
    "workers", int, 0, "trial processes (0 = one per core, 1 = inline)",
)
_TRANSPORT = Option(
    "transport", str, "pickle", "how built worlds reach worker processes",
    choices=("pickle", "shm"),
)
ENGINE = (
    _WORKERS,
    Option("trial_timeout_s", float, None,
           "wall-clock budget per trial in seconds (default: unlimited)"),
    Option("trial_retries", int, 0,
           "extra attempts before a trial is quarantined"),
    Option("trial_batch", int, 1,
           "worlds per work item under one GC pause, each built, "
           "measured and dropped in turn (results unchanged)"),
    _TRANSPORT,
)
_ENGINE_KEYS = tuple(option.key for option in ENGINE)

_GROUP_HELP = "peer group (paper Section 4.2)"
_BILLING_HELP = "billing price for the NetFlow 95th-percentile bill"


# -- factories: validated config -> Study -------------------------------------


def _detection(values: dict[str, Any]) -> DetectionStudy:
    if values["ixps"] is None:
        specs = detection_preset_specs(values["preset"])
    else:
        # One lookup per name, so typos fail instead of shrinking the study.
        specs = tuple(spec_by_acronym(name) for name in values["ixps"])
    axes = {}
    if values["threshold_ms"] is not None:
        axes["campaign.remoteness_threshold_ms"] = values["threshold_ms"]
    return DetectionStudy(variants=grid_variants(
        world=DetectionWorldConfig(specs=specs), axes=axes,
    ))


def _offload(values: dict[str, Any]) -> OffloadStudy:
    axes = {
        f"world.{key}": values[key]
        for key in ("member_tier2_fraction", "tier1_only_stub_fraction")
        if values[key] is not None
    }
    return OffloadStudy(variants=offload_grid_variants(
        world=offload_preset_config(values["preset"]),
        axes=axes,
        groups=values["groups"],
        max_ixps=values["max_ixps"],
    ))


def _economics(values: dict[str, Any]) -> EconomicsStudy:
    preset = values["preset"]
    return EconomicsStudy(variants=(
        EconomicsVariant(
            name=preset,
            world=offload_preset_config(preset),
            group=values["group"],
            max_ixps=values["max_ixps"],
            transit_price=values["transit_price"],
            direct_fixed=values["direct_fixed"],
            direct_unit=values["direct_unit"],
            remote_fixed=values["remote_fixed"],
            remote_unit=values["remote_unit"],
            price_per_mbps=values["price_per_mbps"],
        ),
    ))


def _joint(values: dict[str, Any]) -> JointStudy:
    preset = values["preset"]
    detection_world, offload_world = joint_preset_configs(preset)
    return JointStudy(variants=(
        JointVariant(
            name=preset,
            detection_world=detection_world,
            offload_world=offload_world,
            group=values["group"],
            remote_fraction=values["remote_fraction"],
            price_per_mbps=values["price_per_mbps"],
        ),
    ))


def _mega(values: dict[str, Any]) -> MegaStudy:
    preset = values["preset"]
    return MegaStudy(variants=(
        MegaVariant(
            name=preset,
            world=mega_preset_config(preset),
            max_ixps=values["max_ixps"],
        ),
    ))


#: The registry: every study kind, in presentation order.
STUDIES: dict[str, StudyKind] = {
    kind.name: kind
    for kind in (
        StudyKind(
            name="detection",
            about="Section 3 detection: mean ± 95% CI precision, recall, "
            "per-filter discards and per-IXP remote fractions",
            options=(
                Option("preset", str, "mini3",
                       "world to replicate: the fast 3-IXP mini world or "
                       "all 22 studied IXPs",
                       choices=("mini3", "paper22")),
                Option("ixps", str, None,
                       "override the preset with these IXP acronyms",
                       many=True),
                Option("threshold_ms", float, None,
                       "remoteness threshold grid in ms (default: just "
                       "10 ms)", many=True),
                *ENGINE,
            ),
            build=_detection,
            render=render_ensemble_report,
            flags=(("per_ixp",
                    "also print per-IXP detected remote fractions"),),
        ),
        StudyKind(
            name="offload",
            about="Section 4 offload: mean ± 95% CI offload fractions and "
            "the greedy IXP expansion consensus across seeds",
            options=(
                Option("preset", str, "small",
                       "world scale: the ~3k-network small world or the "
                       "full 29,570-network paper world",
                       choices=("small", "paper65")),
                Option("groups", int, (4,), "peer groups to study",
                       many=True, choices=ALL_GROUPS),
                Option("max_ixps", int, 8, "greedy expansion depth"),
                Option("member_tier2_fraction", float, None,
                       "grid axis over OffloadWorldConfig."
                       "member_tier2_fraction", many=True),
                Option("tier1_only_stub_fraction", float, None,
                       "grid axis over OffloadWorldConfig."
                       "tier1_only_stub_fraction", many=True),
                *ENGINE,
            ),
            build=_offload,
            render=render_offload_ensemble_report,
        ),
        StudyKind(
            name="economics",
            about="Sections 3+4+5: measured offload curve -> decay fit -> "
            "95th-percentile billing -> eq. 14 viability vote",
            options=(
                Option("preset", str, "small",
                       "world scale: the ~3k-network small world or the "
                       "full 29,570-network paper world",
                       choices=("small", "paper65")),
                Option("group", int, 4, _GROUP_HELP, choices=ALL_GROUPS),
                Option("max_ixps", int, 20,
                       "depth of the fitted remaining-traffic series"),
                Option("transit_price", float, 5.0, "transit price p"),
                Option("direct_fixed", float, 1.0, "direct-peering fixed "
                       "cost g"),
                Option("direct_unit", float, 0.5, "direct-peering unit "
                       "cost u"),
                Option("remote_fixed", float, 0.25, "remote-peering fixed "
                       "cost h"),
                Option("remote_unit", float, 1.5, "remote-peering unit "
                       "cost v"),
                Option("price_per_mbps", float, 1.0, _BILLING_HELP),
                *ENGINE,
            ),
            build=_economics,
            render=render_economics_ensemble_report,
        ),
        StudyKind(
            name="joint",
            about="Joint detection->offload: measured detection confusion "
            "replayed onto the offload peer map, the oracle-vs-detected "
            "gap and the billing forecast error",
            options=(
                Option("preset", str, "small",
                       "world family: mini3 detection + ~3k-AS offload "
                       "world, or the full paper-scale pair",
                       choices=("small", "paper")),
                Option("group", int, 4, _GROUP_HELP, choices=ALL_GROUPS),
                Option("remote_fraction", float, None,
                       "oracle remote share of candidate members "
                       "(default: the detection world's measured "
                       "ground-truth remote fraction)"),
                Option("price_per_mbps", float, 1.0, _BILLING_HELP),
                _WORKERS,
            ),
            build=_joint,
            render=render_joint_ensemble_report,
        ),
        StudyKind(
            name="mega",
            about="Mega-scale Euro-IX expansion over 10^5+-network worlds, "
            "dispatched over zero-copy shared-memory transport",
            options=(
                Option("preset", str, "mega-smoke",
                       "world scale: the ~20k-network smoke world or the "
                       "100k-network mega world",
                       choices=("mega-smoke", "mega")),
                Option("max_ixps", int, 8, "greedy expansion depth"),
                _WORKERS,
                replace(_TRANSPORT, default="shm"),
            ),
            build=_mega,
            render=render_mega_report,
            seeds=4,
            flags=(("strict_transport",
                    "fail (exit 1) if any trial fell back from "
                    "shared-memory to pickle transport"),),
        ),
        StudyKind(
            name="failover",
            about="Offload savings eroded by pseudowire dark windows "
            "(the failover scenario)",
            render=render_failover_ensemble_report,
        ),
    )
}

#: The schema of ``{"study": "scenario"}`` requests.
SCENARIO_OPTIONS = (
    Option("name", str, None, "scenario name", choices=tuple(SCENARIOS)),
    Option("preset", str, "small", "world scale", choices=PRESETS),
    *ENGINE,
)


def request_kinds() -> tuple[str, ...]:
    """The study kinds a request can name (registry kinds with a schema)."""
    return tuple(name for name, kind in STUDIES.items() if kind.build)


def _validate(
    options: tuple[Option, ...], config: Any, seed_count: int
) -> tuple[dict[str, Any], tuple[int, ...]]:
    """Every option's validated value (defaults filled in) plus the seeds."""
    if not isinstance(config, dict):
        raise ConfigurationError("config must be a JSON object")
    by_key = {option.key: option for option in options}
    unknown = sorted(set(config) - set(by_key) - {"seeds"})
    if unknown:
        raise ConfigurationError(
            f"unknown config key(s) {', '.join(map(repr, unknown))} "
            f"(expected seeds, {', '.join(by_key)})"
        )
    values = {
        key: option.parse(config[key]) if key in config else option.default
        for key, option in by_key.items()
    }
    return values, parse_seeds(config.get("seeds", {"count": seed_count}))


def _study_config(
    values: dict[str, Any], seeds: tuple[int, ...]
) -> StudyConfig:
    return StudyConfig(
        seeds=seeds,
        **{key: values[key] for key in _ENGINE_KEYS if key in values},
    )


def resolve(kind: Any, config: Any) -> tuple[str, Study, StudyConfig]:
    """Validate one request; returns ``(display name, study, config)``.

    ``kind`` is a kind of :func:`request_kinds` or ``"scenario"``.
    Anything malformed raises :class:`ConfigurationError` naming the
    offending key, so a bad request fails at the front door rather than
    inside a worker.
    """
    if kind == "scenario":
        values, seeds = _validate(SCENARIO_OPTIONS, config, 16)
        if values["name"] is None:
            raise ConfigurationError("scenario requests need a 'name'")
        study = SCENARIOS[values["name"]].grid(values["preset"])
        config = _study_config(values, seeds)
        return f"scenario:{values['name']}", study, config
    entry = STUDIES.get(kind) if isinstance(kind, str) else None
    if entry is None or entry.build is None:
        raise ConfigurationError(
            f"unknown study kind {kind!r} (expected one of "
            f"{', '.join(request_kinds())} or scenario)"
        )
    values, seeds = _validate(entry.options, config, entry.seeds)
    try:
        study = entry.build(values)
    except EconomicsError as error:  # prices outside the Section 5 model
        raise ConfigurationError(str(error)) from error
    return kind, study, _study_config(values, seeds)


def render_report(study: Study, result: StudyResult, **flags: bool) -> str:
    """The study kind's report of one run, ending with its coverage note.

    ``flags`` are the kind's report switches (``per_ixp`` for detection);
    every front end but the CLI renders with none.
    """
    render = STUDIES[study.name].render
    text = render(study, result, aggregate(study, result), **flags)
    note = result.coverage_note()
    return f"{text}\n\nNote: {note}" if note else text
