"""End-to-end smoke of the study service (the ``make serve-smoke`` gate).

Starts the full service in-process on an ephemeral port (the real
asyncio server on a background thread, the real scheduler threads, the
real content-addressed store in a temp directory) and drives it over
actual HTTP:

1. **Cold run** — submit a tiny single-IXP detection study, follow it to
   completion, and require every trial to have executed (no store hit)
   and the job's ``metrics`` to carry the report's aggregates: precision,
   recall, the shortfall and every per-filter discard count.
2. **Warm run** — resubmit the byte-identical request and require a
   **100% cache hit**: all trials resumed from the artifact, zero
   recomputed, ``cache_hit`` flagged on the job and counted by
   ``/metrics``, and the same job ``metrics`` as the cold run.
3. **Thread-safe deadline** — submit the same study with fresh seeds and
   a deliberately impossible ``trial_timeout_s``; the job runs on a
   scheduler thread (not a main thread), where SIGALRM cannot fire, so
   the study runs its trials in a worker process under that process's
   itimer.  Every trial must come back quarantined with a deadline
   error, and once the job is done no worker process may be left
   running: the deadline stopped the work, not just the wait.
4. **Store reads** — ``GET /results/{fingerprint}`` must replay the
   cold run's rows, each with the scheduler's ``timings`` beside a
   ``result`` that carries no timing key; a cancellation round-trips;
   unknown jobs 404.

Exit code 0 when every assertion holds.
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Any

from repro.serve.app import HttpServer, StudyService

#: The cold/warm study: one small IXP, two seeds, inline trials.
SMOKE_REQUEST: dict[str, Any] = {
    "study": "detection",
    "config": {
        "ixps": ["TorIX"],
        "seeds": [0, 1],
        "workers": 1,
    },
}

#: The detection report's per-filter discard metrics.
DISCARD_METRICS = tuple(f"discards/{name}" for name in (
    "sample-size", "ttl-switch", "ttl-match", "rtt-consistent",
    "lg-consistent", "asn-change",
))

#: The deadline study: fresh seeds (a different fingerprint — the budget
#: is not part of the content address, so reusing the cached seeds would
#: short-circuit into a store hit and never time out) and a budget no
#: world build can meet.
TIMEOUT_REQUEST: dict[str, Any] = {
    "study": "detection",
    "config": {
        "ixps": ["TorIX"],
        "seeds": [7],
        "workers": 1,
        "trial_timeout_s": 0.001,
    },
}


class _ServerThread:
    """The real service on a background thread, bound to an ephemeral port."""

    def __init__(self, store_dir: str) -> None:
        import asyncio

        self._loop = asyncio.new_event_loop()
        self.service = StudyService(store_dir, threads=2)
        self._server = HttpServer(self.service)
        self.port = 0
        started = threading.Event()

        async def _start() -> None:
            _, self.port = await self._server.start("127.0.0.1", 0)
            started.set()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(_start())
            self._loop.run_forever()

        self.service.start()
        self._thread = threading.Thread(
            target=_run, daemon=True, name="repro-serve-smoke"
        )
        self._thread.start()
        if not started.wait(10.0):
            raise RuntimeError("smoke server failed to start")

    def stop(self) -> None:
        import asyncio

        async def _close() -> None:
            await self._server.close()

        asyncio.run_coroutine_threadsafe(_close(), self._loop).result(5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5.0)
        self.service.shutdown()


def _call(
    base: str, method: str, path: str, payload: Any | None = None
) -> tuple[int, Any]:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _await_terminal(base: str, job_id: str, timeout_s: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, job = _call(base, "GET", f"/studies/{job_id}")
        assert status == 200, f"status poll failed: {status} {job}"
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish within {timeout_s}s")


def run_smoke(verbose: bool = True) -> int:
    """Drive the full submit → cache-hit → deadline sequence; 0 on success."""

    def say(message: str) -> None:
        if verbose:
            print(f"serve-smoke: {message}")

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as store:
        server = _ServerThread(store)
        base = f"http://127.0.0.1:{server.port}"
        try:
            status, health = _call(base, "GET", "/healthz")
            assert status == 200 and health["ok"], health

            # 1. Cold run: every trial executes.
            status, job = _call(base, "POST", "/studies", SMOKE_REQUEST)
            assert status == 202, f"submit failed: {status} {job}"
            cold = _await_terminal(base, job["id"])
            assert cold["state"] == "done", cold
            total = cold["trials"]["total"]
            assert total == 2, cold
            assert cold["trials"]["done"] == total, cold
            assert cold["trials"]["resumed"] == 0, cold
            assert not cold["cache_hit"], cold
            wanted = {"precision", "recall", "shortfall", *DISCARD_METRICS}
            missing = wanted - set(cold["metrics"].get("base", {}))
            assert not missing, f"job metrics lack {sorted(missing)}: {cold}"
            say(f"cold run done: {total} trials executed "
                f"({cold['wall_s']:.2f}s)")

            # 2. Warm run: a byte-identical resubmission is a pure store
            # hit — zero trials recomputed.
            status, job = _call(base, "POST", "/studies", SMOKE_REQUEST)
            assert status == 202, job
            warm = _await_terminal(base, job["id"])
            assert warm["state"] == "done", warm
            assert warm["fingerprint"] == cold["fingerprint"], (cold, warm)
            assert warm["trials"]["resumed"] == total, warm
            assert warm["cache_hit"], warm
            assert warm["metrics"] == cold["metrics"], (cold, warm)
            say(f"warm run done: 100% cache hit ({total}/{total} resumed, "
                f"0 recomputed)")

            # 3. The thread-safe deadline: this job runs on a scheduler
            # thread, where SIGALRM cannot fire, so its trials run in a
            # worker process under that process's itimer.  Every trial
            # is quarantined, and the worker that enforced the deadline
            # is gone once the job is done.
            status, job = _call(base, "POST", "/studies", TIMEOUT_REQUEST)
            assert status == 202, job
            timed_out = _await_terminal(base, job["id"])
            assert timed_out["state"] == "done", timed_out
            trials = timed_out["trials"]
            assert trials["failed"] == trials["total"] > 0, timed_out
            assert any(
                "deadline" in note["error"] for note in timed_out["failures"]
            ), timed_out
            children = multiprocessing.active_children()
            assert children == [], f"worker outlived its job: {children}"
            say(f"deadline run done: {trials['failed']} trial(s) "
                "quarantined in a worker process, none left running")

            # 4. Store reads + metrics accounting.
            status, result = _call(
                base, "GET", f"/results/{cold['fingerprint']}"
            )
            assert status == 200 and result["trials"] == total, result
            assert len(result["rows"]) == total, result
            for row in result["rows"]:
                assert set(row["timings"]) == {"build_s", "measure_s"}, row
                assert not [key for key in row["result"]
                            if key.endswith("_s")], row
            status, metrics = _call(base, "GET", "/metrics")
            assert status == 200, metrics
            store_stats = metrics["store"]
            assert store_stats["trial_hits"] == total, metrics
            assert store_stats["full_hits"] == 1, metrics
            assert metrics["jobs"].get("done") == 3, metrics
            say(f"store metrics: {store_stats['trial_hits']} trial hits, "
                f"{store_stats['trial_misses']} misses, "
                f"{store_stats['full_hits']} full cache hit(s)")

            # 5. Edges: unknown job 404s; cancellation round-trips.
            status, _ = _call(base, "GET", "/studies/job-nope")
            assert status == 404, status
            status, job = _call(base, "POST", "/studies", {
                "study": "detection",
                "config": {"ixps": ["TorIX"], "seeds": [11], "workers": 1},
            })
            assert status == 202, job
            status, cancelled = _call(
                base, "DELETE", f"/studies/{job['id']}"
            )
            assert status == 200, cancelled
            final = _await_terminal(base, job["id"])
            assert final["state"] in ("cancelled", "done"), final
            say(f"cancellation round-trip: job ended {final['state']}")
        finally:
            server.stop()
    say("all checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation hook
    raise SystemExit(run_smoke())
