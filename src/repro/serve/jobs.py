"""Request resolution: JSON study submissions → (name, Study, StudyConfig).

``POST /studies`` bodies are declarative — they name a registered study
kind or scenario and describe its configuration as plain JSON — so they
can be journaled verbatim by the scheduler and replayed after a service
restart (a live ``Study`` object cannot be rebuilt from a journal line;
a request payload can).  :func:`resolve_request` is the one resolver the
service injects into :class:`~repro.experiments.scheduler.
StudyScheduler`; everything it accepts is therefore recoverable.

The request shape::

    {
      "study": "detection" | "offload" | "economics" | "joint" | "mega"
               | "scenario",
      "priority": 0,                      # higher runs first
      "config": { ... the kind's keys ... }
    }

The ``config`` schema of every kind lives in the study registry,
:mod:`repro.experiments.requests` — the same schema ``repro study
<kind>`` turns its flags into.  Bad payloads, including unknown keys,
raise :class:`~repro.errors.ConfigurationError`, which the HTTP layer
maps to a 400 response.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.experiments.engine import Study, StudyConfig
from repro.experiments.requests import resolve


def resolve_request(payload: Any) -> tuple[str, Study, StudyConfig]:
    """Resolve one ``POST /studies`` body into the scheduler's inputs.

    Returns ``(display name, study, config)``; raises
    :class:`ConfigurationError` on anything malformed — unknown study
    kind or key, bad seeds, engine-invalid knobs — so submissions fail at
    the API boundary, not inside a scheduler thread.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("request body must be a JSON object")
    unknown = sorted(set(payload) - {"study", "priority", "config"})
    if unknown:
        raise ConfigurationError(
            f"unknown request key(s) {', '.join(map(repr, unknown))} "
            "(expected study, priority, config)"
        )
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ConfigurationError("priority must be an integer")
    return resolve(payload.get("study"), payload.get("config", {}))
