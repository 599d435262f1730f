"""``repro serve`` — the study engine as a long-running HTTP service.

The package turns the blocking :func:`repro.experiments.engine.run_study`
call into a system that can face traffic: an asyncio HTTP API (stdlib
only — no framework dependency) over the
:class:`~repro.experiments.scheduler.StudyScheduler` job queue and the
content-addressed artifact store.  Submissions are declarative JSON,
progress streams over chunked responses, repeated identical submissions
are answered from the store without recomputing a single trial, and a
killed service re-enqueues its unfinished jobs from the journal on
restart.

Layering (strictly one-way)::

    serve.app / serve.routes      HTTP plumbing + route handlers
        │ uses
    serve.jobs                    JSON request → (Study, StudyConfig)
    serve.store                   read-side view of the artifact store
        │ uses
    experiments.requests          study registry: schemas, factories
    experiments.scheduler         job queue + execution core
        │ uses
    experiments.engine            data model + artifact format

``experiments`` never imports ``serve`` — the scheduler takes the
request resolver by injection — so the engine stays usable without the
service, and the service stays a thin shell over the engine.

See ``serve/README.md`` for the API reference and job lifecycle.
"""

from repro.serve.app import HttpServer, StudyService, run_server, serve
from repro.serve.jobs import resolve_request
from repro.serve.store import ResultStore

__all__ = [
    "HttpServer",
    "ResultStore",
    "StudyService",
    "resolve_request",
    "run_server",
    "serve",
]
