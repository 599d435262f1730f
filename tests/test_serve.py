"""The HTTP study service: request resolution, the store view, and the
full asyncio server driven over real sockets.

The server fixture is the smoke harness' background-thread server — the
real :class:`~repro.serve.app.HttpServer` + scheduler threads over a
temp store — so every assertion here exercises the same stack
``make serve-smoke`` gates in CI.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.requests import parse_seeds
from repro.serve.jobs import resolve_request
from repro.serve.smoke import _await_terminal, _call, _ServerThread
from repro.serve.store import ResultStore


#: Bodies the typed request schema rejects, with the key its error names:
#: wrong JSON types (once 500s), a boolean seed count and a misspelled key
#: (once silently accepted).
SCHEMA_ERRORS = [
    ({"study": "offload", "config": {"max_ixps": "many"}}, "max_ixps"),
    ({"study": "economics", "config": {"group": [1]}}, "group"),
    ({"study": "economics", "config": {"transit_price": "cheap"}},
     "transit_price"),
    ({"study": "detection", "config": {"threshold_ms": ["x"]}},
     "threshold_ms"),
    ({"study": "scenario", "config": {"name": "joint", "workers": "two"}},
     "workers"),
    ({"study": "detection", "config": {"seeds": {"count": True}}},
     "seeds.count"),
    ({"study": "detection", "config": {"treshold_ms": [5, 10]}},
     "treshold_ms"),
    ({"study": "detection", "priority": "high", "config": {}}, "priority"),
]


class TestParseSeeds:
    def test_explicit_list(self):
        assert parse_seeds([3, 1, 7]) == (3, 1, 7)

    def test_count_offset_range(self):
        assert parse_seeds({"count": 3, "offset": 10}) == (10, 11, 12)
        assert parse_seeds({"count": 2}) == (0, 1)

    @pytest.mark.parametrize("bad", [
        [], ["x"], [True], {"count": 0}, {"count": "3"},
        {"count": 2, "offset": "x"}, "0,1", None,
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_seeds(bad)


class TestResolveRequest:
    def test_detection_by_ixp_list(self):
        name, study, config = resolve_request({
            "study": "detection",
            "config": {"ixps": ["TorIX"], "seeds": [0, 1], "workers": 1},
        })
        assert name == "detection"
        assert study.name == "detection"
        assert config.seeds == (0, 1)
        assert config.workers == 1

    def test_engine_knobs_pass_through(self):
        _, _, config = resolve_request({
            "study": "detection",
            "config": {"ixps": ["TorIX"], "seeds": [0],
                       "trial_timeout_s": 2.5, "trial_retries": 1},
        })
        assert config.trial_timeout_s == 2.5
        assert config.trial_retries == 1

    @pytest.mark.parametrize("payload", [
        "not an object",
        {"study": "nope", "config": {}},
        {"config": {"seeds": [0]}},
        {"study": "detection", "config": "not an object"},
        {"study": "detection", "config": {"ixps": [], "seeds": [0]}},
        {"study": "detection", "config": {"ixps": ["TorIX"], "seeds": []}},
        {"study": "scenario", "config": {"seeds": [0]}},  # no name
        *(payload for payload, _ in SCHEMA_ERRORS),
    ])
    def test_malformed_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            resolve_request(payload)

    @pytest.mark.parametrize("payload, key", SCHEMA_ERRORS)
    def test_schema_error_names_the_key(self, payload, key):
        with pytest.raises(ConfigurationError, match=key):
            resolve_request(payload)


class TestResultStore:
    def test_missing_fingerprint_reports_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.find("ab12") is None
        assert store.status_for("ab12") == {
            "fingerprint": "ab12", "exists": False,
        }

    @pytest.mark.parametrize("bad", ["", "../etc", "AB12", "a" * 65, "x*"])
    def test_path_metacharacters_rejected(self, bad, tmp_path):
        with pytest.raises(ConfigurationError, match="malformed fingerprint"):
            ResultStore(tmp_path).find(bad)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    thread = _ServerThread(str(tmp_path_factory.mktemp("serve-store")))
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def base(server):
    return f"http://127.0.0.1:{server.port}"


def _submit_detection(base: str, seeds: list[int]) -> dict:
    status, job = _call(base, "POST", "/studies", {
        "study": "detection",
        "config": {"ixps": ["TorIX"], "seeds": seeds, "workers": 1},
    })
    assert status == 202, job
    return job


@pytest.mark.slow
class TestHttpApi:
    def test_index_describes_the_service(self, base):
        status, body = _call(base, "GET", "/")
        assert status == 200
        assert body["studies"] == [
            "detection", "offload", "economics", "joint", "mega",
        ]
        assert "churned-detection" in body["scenarios"]
        assert any("POST /studies" in e for e in body["endpoints"])

    def test_healthz(self, base):
        assert _call(base, "GET", "/healthz") == (200, {"ok": True})

    def test_unknown_route_404s(self, base):
        status, body = _call(base, "GET", "/nope")
        assert status == 404 and "no route" in body["error"]

    def test_unknown_job_404s(self, base):
        status, body = _call(base, "GET", "/studies/job-missing")
        assert status == 404 and "unknown job" in body["error"]
        status, body = _call(base, "GET", "/studies/job-nope?watch=1")
        assert status == 404 and "unknown job" in body["error"]
        status, _ = _call(base, "DELETE", "/studies/job-missing")
        assert status == 404

    def test_unsupported_method_405s(self, base):
        connection = http.client.HTTPConnection("127.0.0.1", _port(base))
        try:
            connection.request("PUT", "/studies/job-x")
            assert connection.getresponse().status == 405
        finally:
            connection.close()

    def test_malformed_submissions_400(self, base):
        connection = http.client.HTTPConnection("127.0.0.1", _port(base))
        try:
            connection.request("POST", "/studies", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()
        status, body = _call(base, "POST", "/studies",
                             {"study": "nope", "config": {}})
        assert status == 400 and "unknown study kind" in body["error"]
        status, body = _call(base, "POST", "/studies", {
            "study": "detection", "config": {"ixps": ["TorIX"], "seeds": []},
        })
        assert status == 400 and "seeds" in body["error"]

    def test_schema_errors_are_400_not_500(self, base):
        status, body = _call(base, "POST", "/studies", {
            "study": "offload", "config": {"max_ixps": "many"},
        })
        assert status == 400 and "max_ixps" in body["error"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_are_400(self, base, value):
        # json.dumps writes NaN/Infinity, which the service's parser reads.
        status, body = _call(base, "POST", "/studies", {
            "study": "detection",
            "config": {"ixps": ["TorIX"], "trial_timeout_s": float(value)},
        })
        assert status == 400 and "trial_timeout_s" in body["error"]

    @pytest.mark.parametrize("kind, config", [
        ("detection", {"ixps": ["TorIX"]}),
        ("offload", {"max_ixps": 2}),
        ("economics", {}),
        ("joint", {}),
        ("mega", {"preset": "mega-smoke"}),
        ("scenario", {"name": "failover"}),
    ])
    def test_every_request_kind_runs_to_done(self, base, kind, config):
        status, job = _call(base, "POST", "/studies", {
            "study": kind, "config": {**config, "seeds": [71], "workers": 1},
        })
        assert status == 202, job
        done = _await_terminal(base, job["id"])
        assert done["state"] == "done", done
        assert done["trials"]["done"] == done["trials"]["total"] > 0
        assert done["coverage"] is None
        assert (done["batch_fallbacks"], done["transport_fallbacks"],
                done["pool_restarts"]) == (0, 0, 0)

    def test_submit_poll_results_round_trip(self, base):
        job = _submit_detection(base, seeds=[31, 32])
        assert job["state"] in ("queued", "running", "done")
        done = _await_terminal(base, job["id"])
        assert done["state"] == "done"
        assert done["trials"]["done"] == done["trials"]["total"] == 2

        status, listing = _call(base, "GET", "/studies")
        assert status == 200
        assert any(j["id"] == job["id"] for j in listing["jobs"])

        fingerprint = done["fingerprint"]
        status, result = _call(base, "GET", f"/results/{fingerprint}")
        assert status == 200
        assert result["trials"] == 2 and len(result["rows"]) == 2
        assert result["failed"] == 0
        assert {row["trial_id"] for row in result["rows"]} == {0, 1}
        status, limited = _call(
            base, "GET", f"/results/{fingerprint}?limit=1"
        )
        assert status == 200 and len(limited["rows"]) == 1
        status, summary = _call(
            base, "GET", f"/results/{fingerprint}?limit=0"
        )
        assert status == 200 and summary["trials"] == 2
        assert summary["rows"] == []
        status, body = _call(base, "GET", f"/results/{fingerprint}?limit=-3")
        assert status == 400 and "limit" in body["error"]
        # Rows carry the scheduler's timings beside a timing-free result.
        for row in result["rows"]:
            assert set(row["timings"]) == {"build_s", "measure_s"}
            assert not [key for key in row["result"] if key.endswith("_s")]

    def test_unknown_result_404s(self, base):
        status, body = _call(base, "GET", "/results/" + "0" * 16)
        assert status == 404 and body["exists"] is False

    def test_watch_streams_progress_to_terminal(self, base):
        """`?watch=1` is a chunked stream of JSON lines: at least one
        snapshot per state change, monotone trial progress, and the
        terminal snapshot last (http.client undoes the chunking)."""
        job = _submit_detection(base, seeds=[41, 42])
        connection = http.client.HTTPConnection(
            "127.0.0.1", _port(base), timeout=120
        )
        try:
            connection.request("GET", f"/studies/{job['id']}?watch=1")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Transfer-Encoding"] == "chunked"
            lines = response.read().decode().splitlines()
        finally:
            connection.close()
        snapshots = [json.loads(line) for line in lines if line]
        assert snapshots, "watch stream yielded nothing"
        assert snapshots[-1]["state"] == "done"
        done_counts = [s["trials"]["done"] for s in snapshots]
        assert done_counts == sorted(done_counts)
        assert done_counts[-1] == 2

    def test_cancel_round_trip_is_idempotent(self, base):
        job = _submit_detection(base, seeds=[51])
        status, first = _call(base, "DELETE", f"/studies/{job['id']}")
        assert status == 200
        final = _await_terminal(base, job["id"])
        assert final["state"] in ("cancelled", "done")
        status, second = _call(base, "DELETE", f"/studies/{job['id']}")
        assert status == 200 and second["state"] == final["state"]

    def test_metrics_counts_jobs_and_store_traffic(self, base):
        cold = _submit_detection(base, seeds=[61, 62])
        assert _await_terminal(base, cold["id"])["state"] == "done"
        # Resubmitting the identical request is a pure store hit,
        # visible in the metrics deltas.
        _, before = _call(base, "GET", "/metrics")
        job = _submit_detection(base, seeds=[61, 62])
        done = _await_terminal(base, job["id"])
        assert done["cache_hit"] and done["trials"]["resumed"] == 2
        status, after = _call(base, "GET", "/metrics")
        assert status == 200
        hit_delta = (after["store"]["trial_hits"]
                     - before["store"]["trial_hits"])
        assert hit_delta == 2
        assert after["store"]["trial_misses"] == \
            before["store"]["trial_misses"]
        assert after["store"]["full_hits"] >= 1
        assert after["jobs"].get("done", 0) > before["jobs"].get("done", 0)


def _port(base: str) -> int:
    return int(base.rsplit(":", 1)[1])


@pytest.mark.slow
def test_quarantined_trial_reaches_the_job_snapshot(tmp_path, monkeypatch):
    """A trial that raises is reported in ``coverage`` of GET /studies/{id}."""
    from repro.experiments import ensemble

    measure = ensemble.measure_detection_trial

    def poisoned(spec, world):
        if spec.seed == 1:
            raise RuntimeError("poisoned probe")
        return measure(spec, world)

    monkeypatch.setattr(ensemble, "measure_detection_trial", poisoned)
    server = _ServerThread(str(tmp_path))
    try:
        base = f"http://127.0.0.1:{server.port}"
        status, job = _call(base, "POST", "/studies", {
            "study": "detection",
            "config": {"ixps": ["TorIX"], "seeds": [0, 1, 2], "workers": 1},
        })
        assert status == 202, job
        _await_terminal(base, job["id"])
        status, done = _call(base, "GET", f"/studies/{job['id']}")
    finally:
        server.stop()
    assert status == 200 and done["state"] == "done"
    assert done["trials"]["failed"] == 1
    assert "degraded coverage: 1 of 3 trials failed" in done["coverage"]
