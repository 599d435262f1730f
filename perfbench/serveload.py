"""The serve-mixed workload: closed-loop clients against ``repro serve``.

``repro serve --port 0`` runs as a subprocess on a fresh store.  Each of
``CLIENTS`` threads sends a pair of requests per round and waits for each
answer before sending the next (researchers each wait for their study):

* a *cold* request — a small detection, offload or economics study
  (cycling in that order) at seeds no earlier request used, so every
  trial executes and is written to the store;
* a *warm* request — the byte-identical resubmission of that study,
  which the server must answer from the store without executing a trial.

A request is timed from sending the POST to receiving the last result
row: ``POST /studies``, then ``GET /studies/{id}?watch=1`` until the job
is terminal, then ``GET /results/{fingerprint}``.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from typing import Any

from layers import per_layer_report, span_metrics
from spans import load_spans
from workloads import canonical, peak_rss_mb, percentile, tail_note

HERE = Path(__file__).resolve().parent

CLIENTS = 2
SERVER_THREADS = 2
#: Server starts per untraced run; ``setup_s`` is their median.  A start
#: takes about half a second, so five are cheap and steadier than three.
SETUP_STARTS = 5
START_TIMEOUT_S = 60.0
#: A request not answered within this is a failure, and counts as this
#: latency in the percentiles.
REQUEST_TIMEOUT_S = 60.0
#: Latencies come in steps of the server's 0.1 s watch poll.  A few
#: percent of warm requests miss the first snapshot and wait one step, so
#: the warm tail is p75: p90 would flip between the two steps.  A run
#: holds about 40 requests of each class, so p75 keeps ~10 beyond it.
COLD_TAIL = 75.0
WARM_TAIL = 75.0

#: Cold request kinds, cycled in order: (study, config, seeds per request).
#: Eight seeds make a cold study take most of a second, so the watch
#: poll's 0.1 s step is a small share of cold latency (with one or two
#: seeds, cold percentiles flipped between steps from run to run).
COLD_SEEDS = 8
KINDS = (
    ("detection", {"ixps": ["TorIX"]}),
    ("offload", {"preset": "small", "max_ixps": 8}),
    ("economics", {"preset": "small"}),
)

#: No proxy: every request goes to the local server.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def cold_request(seed: int, index: int) -> dict[str, Any]:
    """The ``index``-th cold request body of a run with workload ``seed``."""
    study, extra = KINDS[index % len(KINDS)]
    return {"study": study, "config": {
        **extra,
        "workers": 1,
        "seeds": {"count": COLD_SEEDS,
                  "offset": seed * 100_000 + index * COLD_SEEDS},
    }}


def call(base: str, method: str, path: str, payload: Any = None) -> tuple[int, Any]:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with _OPENER.open(request, timeout=REQUEST_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read() or b"null")


def watch(base: str, job_id: str) -> dict[str, Any] | None:
    """Follow a job's progress stream; returns its last snapshot."""
    last = None
    with _OPENER.open(f"{base}/studies/{job_id}?watch=1",
                      timeout=REQUEST_TIMEOUT_S) as response:
        for line in response:
            if line.strip():
                last = json.loads(line)
    return last


class Server:
    """One ``repro serve --port 0`` subprocess, ready once /healthz answers."""

    def __init__(self, root: Path, store: Path, log: Path,
                 spill: Path | None = None) -> None:
        if spill is None:
            command = ["-m", "repro", "serve", "--port", "0"]
        else:
            command = [str(HERE / "serve_launcher.py"), "--spill", str(spill)]
        command = [sys.executable, "-u", *command, "--store", str(store),
                   "--threads", str(SERVER_THREADS)]
        source = str(root / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (source, os.environ.get("PYTHONPATH")))))
        started = time.monotonic()
        self._log = log.open("ab")
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdout=subprocess.PIPE, stderr=self._log)
        self._lines: queue.Queue[bytes] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.base = self._await_ready(started + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(b"")

    def _await_ready(self, deadline: float) -> str:
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("the server did not report its port in time")
            if not line:
                raise RuntimeError(f"the server exited with {self.proc.wait()}")
            bound = re.search(rb"http://([^\s:]+):(\d+)", line)
            if bound:
                base = f"http://{bound[1].decode()}:{int(bound[2])}"
                break
        while time.monotonic() < deadline:
            try:
                status, body = call(base, "GET", "/healthz")
                if status == 200 and body.get("ok"):
                    return base
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("the server never answered /healthz")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()  # type: ignore[union-attr]
        self._log.close()


@dataclass
class Outcome:
    index: int
    warm: bool
    latency_s: float = 0.0
    fetch_s: float = 0.0
    job: dict[str, Any] | None = None
    rows: list[dict[str, Any]] | None = None
    problems: list[str] = field(default_factory=list)


def issue(base: str, index: int, payload: dict[str, Any], warm: bool) -> Outcome:
    """Submit one study, follow it to the end, fetch its rows."""
    outcome = Outcome(index, warm)
    began = time.perf_counter()
    try:
        status, job = call(base, "POST", "/studies", payload)
        if status != 202:
            outcome.problems.append(f"POST /studies answered {status}: {job}")
        else:
            outcome.job = watch(base, job["id"])
            watched = time.perf_counter()
            if outcome.job is None:
                outcome.problems.append("the watch stream was empty")
            else:
                status, result = call(
                    base, "GET", f"/results/{outcome.job['fingerprint']}")
                outcome.fetch_s = time.perf_counter() - watched
                if status != 200:
                    outcome.problems.append(f"GET /results answered {status}")
                else:
                    outcome.rows = result.get("rows")
    # A client must survive any failed request: record it and go on.
    except Exception as error:
        outcome.problems.append(f"{type(error).__name__}: {error}")
    outcome.latency_s = time.perf_counter() - began
    return outcome


def verify(cold: Outcome, warm: Outcome) -> None:
    """Append every wrong-output finding of one cold/warm pair."""
    for outcome in (cold, warm):
        if outcome.problems or outcome.job is None:
            continue
        job, rows = outcome.job, outcome.rows or []
        if job["state"] != "done":
            outcome.problems.append(f"job ended {job['state']}: {job.get('error')}")
        elif job["trials"]["failed"]:
            outcome.problems.append(f"{job['trials']['failed']} trial(s) quarantined")
        if len(rows) != job["trials"]["total"] or any(
            row.get("status") == "failed" for row in rows
        ):
            outcome.problems.append(
                f"/results returned {len(rows)} rows for "
                f"{job['trials']['total']} trials")
    if cold.problems or warm.problems:
        return
    if cold.job["cache_hit"] or cold.job["trials"]["resumed"]:
        cold.problems.append("a cold request was answered from the store")
    trials = warm.job["trials"]
    if not warm.job["cache_hit"] or trials["resumed"] != trials["total"]:
        warm.problems.append("a warm request was not a full store hit")
    if warm.job["fingerprint"] != cold.job["fingerprint"]:
        warm.problems.append("the warm fingerprint differs from the cold one")
    if warm.rows != cold.rows:
        warm.problems.append("warm rows differ from the cold rows")


@dataclass
class Load:
    outcomes: list[Outcome]
    wall_s: float

    @property
    def pairs(self) -> list[tuple[Outcome, Outcome]]:
        return list(zip(self.outcomes[::2], self.outcomes[1::2]))


def drive(base: str, seed: int, *, seconds: float | None = None,
          rounds: int | None = None) -> Load:
    """Closed loop in rounds, until ``seconds`` pass or ``rounds`` are done.

    In a round every client sends its cold request and waits for the
    answer; once all have, every client resubmits its study warm.  Warm
    requests therefore never overlap a cold study's compute, which in the
    one server process (one interpreter lock) would delay them by an
    amount that depends on how the two happen to interleave.  Every pair
    is verified after the clock stops.
    """
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    state = {"started": 0, "stop": False, "broken": False}
    start = time.perf_counter()

    def next_round() -> None:
        state["stop"] = (
            (rounds is not None and state["started"] >= rounds)
            or (seconds is not None and time.perf_counter() - start >= seconds)
        )
        if not state["stop"]:
            state["started"] += 1

    begin = threading.Barrier(CLIENTS, action=next_round)
    cold_done = threading.Barrier(CLIENTS)

    def client(slot: int) -> None:
        try:
            while True:
                begin.wait(timeout=3 * REQUEST_TIMEOUT_S)
                if state["stop"]:
                    return
                index = (state["started"] - 1) * CLIENTS + slot
                payload = cold_request(seed, index)
                cold = issue(base, index, payload, warm=False)
                cold_done.wait(timeout=3 * REQUEST_TIMEOUT_S)
                warm = issue(base, index, payload, warm=True)
                with lock:
                    outcomes.extend((cold, warm))
        except threading.BrokenBarrierError:
            state["broken"] = True
            begin.abort()
            cold_done.abort()

    threads = [threading.Thread(target=client, args=(slot,),
                                name=f"perfbench-client-{slot}")
               for slot in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    outcomes.sort(key=lambda o: (o.index, o.warm))
    if state["broken"]:
        raise RuntimeError("a client stalled past the round barrier")
    load = Load(outcomes, wall)
    for cold, warm in load.pairs:
        verify(cold, warm)
    return load


def reference_check(load: Load, seed: int) -> list[str]:
    """Recompute the first cold study of each kind here; rows must match."""
    from dataclasses import replace

    from repro.experiments import run_study
    from repro.serve.jobs import resolve_request

    problems = []
    for kind in range(len(KINDS)):
        served = next((o for o in load.outcomes
                       if not o.warm and not o.problems
                       and o.index % len(KINDS) == kind), None)
        if served is None:
            continue
        _, study, config = resolve_request(cold_request(seed, served.index))
        local = run_study(study, replace(config, out_dir=None))
        expected = {t.trial_id: canonical(study.encode(t)) for t in local.trials}
        got = {row["trial_id"]: canonical(row["result"])
               for row in served.rows or []}
        if got != expected:
            problems.append(f"request {served.index} ({KINDS[kind][0]}): served "
                            "rows differ from a local run of the same study")
    return problems


def _client_layers(load: Load, metrics: dict[str, Any]) -> dict[str, float]:
    done = [o for o in load.outcomes if not o.problems]
    store = metrics.get("store", {})
    lookups = store.get("trial_hits", 0) + store.get("trial_misses", 0)
    return {
        "experiments.scheduler.queue_wait_s": fmean(
            o.job["started_s"] - o.job["submitted_s"] for o in done) if done else 0.0,
        "serve.watch_wait_s": fmean(
            o.latency_s - (o.job["finished_s"] - o.job["submitted_s"]) - o.fetch_s
            for o in done) if done else 0.0,
        "experiments.scheduler.store_hit_ratio": (
            store.get("trial_hits", 0) / lookups if lookups else 0.0),
        "failed_share": (len(load.outcomes) - len(done)) / len(load.outcomes),
    }


def run(root: Path, scratch: Path, seed: int, seconds: float,
        trace: bool) -> dict[str, Any]:
    """Set up, drive the timed load (and the traced one), check, report."""
    log = scratch / "serve.log"
    setups = []
    for probe in range(0 if trace else SETUP_STARTS - 1):
        server = Server(root, scratch / f"store-probe-{probe}", log)
        setups.append(server.setup_s)
        server.stop()
    server = Server(root, scratch / "store", log)
    setups.append(server.setup_s)
    try:
        first = drive(server.base, seed, seconds=seconds)
    finally:
        server.stop()
    loads = [first]

    layers = None
    if trace:
        spill = scratch / "spans"
        traced_server = Server(root, scratch / "store-traced", log, spill=spill)
        try:
            traced = drive(traced_server.base, seed,
                           rounds=len(first.pairs) // CLIENTS)
            _, metrics = call(traced_server.base, "GET", "/metrics")
        finally:
            traced_server.stop()
        loads.append(traced)
        values = span_metrics(load_spans(spill), traced_server.proc.pid,
                              traced.wall_s)
        values.update(_client_layers(traced, metrics))
        values["trace.overhead_s"] = traced.wall_s - first.wall_s
        layers = per_layer_report(values)

    problems = [f"request {o.index} ({'warm' if o.warm else 'cold'}): {p}"
                for load in loads for o in load.outcomes for p in o.problems]
    problems += reference_check(first, seed)

    def latencies(warm: bool) -> list[float]:
        return [REQUEST_TIMEOUT_S if o.problems else o.latency_s
                for o in first.outcomes if o.warm == warm]

    cold_s, warm_s = latencies(False), latencies(True)
    done = [o for o in first.outcomes if not o.problems]
    end_to_end = {
        "trials_per_s": sum(o.job["trials"]["total"] for o in done
                            if not o.warm) / first.wall_s,
        "studies_per_s": len(done) / first.wall_s,
        "cold_latency_p50_s": median(cold_s),
        "cold_latency_tail_s": percentile(cold_s, COLD_TAIL),
        "warm_latency_p50_s": median(warm_s),
        "warm_latency_tail_s": percentile(warm_s, WARM_TAIL),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "correct": not problems,
        "attempted": sum(len(load.outcomes) for load in loads),
        "failed": sum(1 for load in loads for o in load.outcomes if o.problems),
        "end_to_end": end_to_end,
        "per_layer": layers,
        "problems": problems,
        "notes": [
            f"{len(first.pairs)} cold/warm pairs from {CLIENTS} clients "
            f"in {first.wall_s:.2f} s",
            tail_note("cold_latency_tail_s", cold_s, COLD_TAIL),
            tail_note("warm_latency_tail_s", warm_s, WARM_TAIL),
            "server set-ups: " + ", ".join(f"{s:.3f}" for s in setups) + " s",
        ],
    }
