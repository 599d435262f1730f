"""Route table of the study service: path + method → handler.

Handlers are small async functions from a parsed :class:`Request` to a
:class:`Response` (one JSON body) or a :class:`StreamingResponse` (an
async iterator of JSON lines sent as HTTP chunks).  They talk only to
the :class:`~repro.serve.app.StudyService` facade — scheduler and store
access stays behind one object so the HTTP plumbing in
:mod:`repro.serve.app` knows nothing about studies.

The API surface::

    GET    /                    service description
    GET    /healthz             liveness probe
    GET    /metrics             queue depth, job states, store hit/miss
    POST   /studies             submit a study request (202 + job)
    GET    /studies             every known job, newest first
    GET    /studies/{id}        one job's status snapshot
    GET    /studies/{id}?watch=1  chunked progress stream until terminal
    DELETE /studies/{id}        cancel (idempotent on terminal jobs)
    GET    /results/{fp}        artifact summary + rows for a fingerprint
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable

from repro.errors import ConfigurationError

#: Poll interval of the watch stream (seconds).
WATCH_POLL_S = 0.1

#: Hard cap on rows a single /results response will carry.
MAX_RESULT_ROWS = 4096


@dataclass(frozen=True, slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except json.JSONDecodeError:
            raise ConfigurationError("request body is not valid JSON")


@dataclass(frozen=True, slots=True)
class Response:
    """A buffered JSON response."""

    status: int
    payload: Any
    headers: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class StreamingResponse:
    """A chunked response: each yielded string becomes one HTTP chunk."""

    status: int
    chunks: AsyncIterator[str]


def error_response(status: int, message: str) -> Response:
    return Response(status, {"error": message})


async def _index(service: Any, request: Request) -> Response:
    return Response(200, {
        "service": "repro serve",
        "endpoints": [
            "GET /healthz", "GET /metrics",
            "POST /studies", "GET /studies", "GET /studies/{id}",
            "GET /studies/{id}?watch=1", "DELETE /studies/{id}",
            "GET /results/{fingerprint}",
        ],
        "studies": list(service.study_kinds()),
        "scenarios": list(service.scenarios()),
    })


async def _healthz(service: Any, request: Request) -> Response:
    return Response(200, {"ok": True})


async def _metrics(service: Any, request: Request) -> Response:
    return Response(200, service.metrics())


async def _submit(service: Any, request: Request) -> Response:
    payload = request.json()
    # Resolution builds variant grids (world configs, price planes) —
    # cheap but synchronous, so keep it off the event loop.
    loop = asyncio.get_running_loop()
    job = await loop.run_in_executor(None, service.submit, payload)
    return Response(202, job)


async def _list_jobs(service: Any, request: Request) -> Response:
    return Response(200, {"jobs": service.jobs()})


async def _job_status(
    service: Any, request: Request, job_id: str
) -> Response | StreamingResponse:
    if request.query.get("watch") not in (None, "", "0", "false"):
        return StreamingResponse(200, _watch(service, job_id))
    return Response(200, service.job(job_id))


async def _watch(service: Any, job_id: str) -> AsyncIterator[str]:
    """Progress snapshots as JSON lines, one per observable change.

    The stream ends with the terminal snapshot; a client sees every
    state transition and monotone trial progress without polling.
    """
    last: tuple[Any, ...] | None = None
    while True:
        snapshot = service.job(job_id)
        marker = (snapshot["state"], snapshot["trials"]["done"],
                  snapshot["trials"]["failed"])
        if marker != last:
            last = marker
            yield json.dumps(snapshot) + "\n"
        if snapshot["state"] in ("done", "failed", "cancelled"):
            return
        await asyncio.sleep(WATCH_POLL_S)


async def _cancel(service: Any, request: Request, job_id: str) -> Response:
    return Response(200, service.cancel(job_id))


async def _result(service: Any, request: Request, fingerprint: str) -> Response:
    limit = MAX_RESULT_ROWS
    if "limit" in request.query:
        try:
            limit = min(int(request.query["limit"]), MAX_RESULT_ROWS)
        except ValueError:
            raise ConfigurationError("limit must be an integer")
        if limit < 0:
            raise ConfigurationError("limit cannot be negative")
    summary = service.result_status(fingerprint)
    if not summary.get("exists"):
        return Response(404, summary)
    summary["rows"] = service.result_rows(fingerprint, limit)
    return Response(200, summary)


#: Exact-path routes: (method, path) → handler(service, request).
_EXACT: dict[tuple[str, str], Callable[..., Awaitable[Any]]] = {
    ("GET", "/"): _index,
    ("GET", "/healthz"): _healthz,
    ("GET", "/metrics"): _metrics,
    ("POST", "/studies"): _submit,
    ("GET", "/studies"): _list_jobs,
}


async def dispatch(
    service: Any, request: Request
) -> Response | StreamingResponse:
    """Route one request; unknown paths get a 404, bad input a 400."""
    handler = _EXACT.get((request.method, request.path))
    try:
        if handler is not None:
            return await handler(service, request)
        parts = [p for p in request.path.split("/") if p]
        if len(parts) == 2 and parts[0] == "studies":
            if request.method == "GET":
                return await _job_status(service, request, parts[1])
            if request.method == "DELETE":
                return await _cancel(service, request, parts[1])
            return error_response(405, f"{request.method} not allowed")
        if (len(parts) == 2 and parts[0] == "results"
                and request.method == "GET"):
            return await _result(service, request, parts[1])
        return error_response(404, f"no route for {request.path}")
    except KeyError as error:
        return error_response(404, str(error).strip("'\""))
    except ConfigurationError as error:
        return error_response(400, str(error))
