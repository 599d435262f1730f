"""The study service: stdlib-asyncio HTTP front end over the scheduler.

Two pieces:

:class:`StudyService`
    The facade the route handlers talk to.  Owns one
    :class:`~repro.experiments.scheduler.StudyScheduler` (jobs run on
    its threads, never on the event loop) and one
    :class:`~repro.serve.store.ResultStore` view over the scheduler's
    artifact directory.  Every method returns plain JSON-ready data —
    handlers never see live job objects.

:class:`HttpServer` / :func:`serve`
    A minimal HTTP/1.1 server on ``asyncio.start_server`` — the
    container has no FastAPI/uvicorn, and the API surface (five JSON
    routes plus one chunked progress stream) does not justify a
    framework.  One request per connection, ``Connection: close``;
    buffered responses carry ``Content-Length``, watch streams use
    chunked transfer encoding so progress lines flush as they happen.

Run it with ``repro serve --port 8072 --store runs/store``; the whole
lifecycle (scheduler start, journal recovery of interrupted jobs,
graceful shutdown) is owned by :func:`serve`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Iterable
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ConfigurationError
from repro.experiments.requests import request_kinds
from repro.experiments.scenarios import scenario_names
from repro.experiments.scheduler import StudyScheduler
from repro.serve.jobs import resolve_request
from repro.serve.routes import (
    Request,
    Response,
    StreamingResponse,
    dispatch,
    error_response,
)
from repro.serve.store import ResultStore

#: Largest request body the server will read (1 MiB of JSON is already
#: far beyond any legitimate study request).
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class StudyService:
    """Scheduler + store behind one JSON-speaking facade."""

    def __init__(
        self,
        store_dir: str,
        *,
        threads: int = 2,
    ) -> None:
        self.scheduler = StudyScheduler(
            store_dir, threads=threads, resolver=resolve_request,
        )
        self.store = ResultStore(self.scheduler.store_dir)
        self.recovered = self.scheduler.recover()

    def start(self) -> None:
        self.scheduler.start()

    def shutdown(self) -> None:
        self.scheduler.shutdown(wait_s=5.0)

    # -- handler-facing methods (all return JSON-ready data) -------------

    def study_kinds(self) -> Iterable[str]:
        return request_kinds()

    def scenarios(self) -> Iterable[str]:
        return scenario_names()

    def submit(self, payload: Any) -> dict[str, Any]:
        if not isinstance(payload, dict):
            raise ConfigurationError("request body must be a JSON object")
        return self.scheduler.submit(request=payload).snapshot()

    def job(self, job_id: str) -> dict[str, Any]:
        try:
            return self.scheduler.get(job_id).snapshot()
        except ConfigurationError:
            raise KeyError(f"unknown job {job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        return [job.snapshot() for job in self.scheduler.jobs()]

    def cancel(self, job_id: str) -> dict[str, Any]:
        try:
            return self.scheduler.cancel(job_id).snapshot()
        except ConfigurationError:
            raise KeyError(f"unknown job {job_id}")

    def metrics(self) -> dict[str, Any]:
        metrics = self.scheduler.metrics_snapshot()
        metrics["recovered_jobs"] = self.recovered
        return metrics

    def result_status(self, fingerprint: str) -> dict[str, Any]:
        return self.store.status_for(fingerprint)

    def result_rows(
        self, fingerprint: str, limit: int
    ) -> list[dict[str, Any]]:
        return list(itertools.islice(self.store.rows(fingerprint), limit))


class HttpServer:
    """One-request-per-connection HTTP/1.1 server over a service."""

    def __init__(self, service: StudyService) -> None:
        self.service = service
        self._server: asyncio.AbstractServer | None = None

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            try:
                response = await dispatch(self.service, request)
            except Exception as error:  # noqa: BLE001 - HTTP boundary
                response = error_response(
                    500, f"{type(error).__name__}: {error}"
                )
            if isinstance(response, StreamingResponse):
                await _write_stream(writer, response)
            else:
                await _write_json(writer, response)
        except ConfigurationError as error:  # unparseable request framing
            await _write_json(writer, error_response(400, str(error)))
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass  # client went away mid-request/mid-stream
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one HTTP/1.1 request (None on an empty connection)."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise ConfigurationError("malformed request line")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ConfigurationError("request body too large")
    body = await reader.readexactly(length) if length else b""
    url = urlsplit(target)
    query = dict(parse_qsl(url.query))
    return Request(
        method=method.upper(),
        path=url.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, extra: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
    lines.extend(f"{name}: {value}" for name, value in extra.items())
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _write_json(writer: asyncio.StreamWriter, response: Response) -> None:
    body = (json.dumps(response.payload) + "\n").encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        **response.headers,
    }
    writer.write(_head(response.status, headers) + body)
    await writer.drain()


async def _write_stream(
    writer: asyncio.StreamWriter, response: StreamingResponse
) -> None:
    writer.write(_head(response.status, {
        "Content-Type": "application/x-ndjson",
        "Transfer-Encoding": "chunked",
    }))
    await writer.drain()
    async for chunk in response.chunks:
        data = chunk.encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        writer.write(data + b"\r\n")
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()


async def run_server(
    host: str,
    port: int,
    store_dir: str,
    *,
    threads: int = 2,
) -> None:
    """Start the scheduler + HTTP server and serve until cancelled."""
    service = StudyService(store_dir, threads=threads)
    service.start()
    server = HttpServer(service)
    bound_host, bound_port = await server.start(host, port)
    print(f"repro serve listening on http://{bound_host}:{bound_port} "
          f"(store: {service.scheduler.store_dir}, "
          f"recovered {service.recovered} job(s))")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
        service.shutdown()


def serve(
    host: str = "127.0.0.1",
    port: int = 8072,
    store_dir: str = "runs/store",
    *,
    threads: int = 2,
) -> int:
    """Blocking entry point of ``repro serve``."""
    try:
        asyncio.run(run_server(host, port, store_dir, threads=threads))
    except KeyboardInterrupt:
        pass
    return 0
