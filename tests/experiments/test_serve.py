"""The ``repro-sim serve`` daemon, end to end over real HTTP.

The server runs on an asyncio loop in a background thread bound to an
ephemeral port; the stdlib ``ServeClient`` talks to it exactly as a
remote submitter would.  Under test: batch submission, cross-submission
dedupe by content address, cache-backed instant resolution on resubmit,
NDJSON progress streaming, and result fingerprints matching a local run.
"""

import asyncio
import contextlib
import socket
import threading

import pytest

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, execute_spec, result_fingerprint
from repro.experiments.store import (
    CODE_VERSION_ENV,
    ResultStore,
    spec_key,
    spec_to_json,
)
from repro.serve import ExperimentServer, ServeClient
from repro.serve.client import ServeError
from repro.serve.server import MAX_HEADERS


@pytest.fixture(autouse=True)
def pinned_code_version(monkeypatch):
    monkeypatch.setenv(CODE_VERSION_ENV, "serve-test-rev")


@contextlib.contextmanager
def running_server(store, workers=1, **server_kwargs):
    """An ExperimentServer on an ephemeral port, loop in a daemon thread."""
    srv = ExperimentServer(store, workers=workers, port=0, **server_kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def main():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture
def server(tmp_path):
    with running_server(ResultStore(tmp_path / "cache")) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}")


def tiny_specs():
    return [
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.adaptive_default(),
            preset="tiny", iterations=6, tag="mig/AD",
        ),
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.write_invalidate(),
            preset="tiny", iterations=6, tag="mig/W-I",
        ),
    ]


def test_serve_end_to_end(server, client):
    health = client.healthz()
    assert health["ok"] and health["workers"] == 1

    specs = tiny_specs()
    duplicated = specs + [specs[0]]  # 3 submissions, 2 unique cells
    job = client.submit_specs(duplicated)
    assert job["total"] == 3
    status = client.wait(job["job"], timeout=120)
    assert status["complete"]
    assert status["finished"] == 3
    assert all(c["status"] == "done" for c in status["cells"])
    # The duplicate attached to the existing cell instead of re-running.
    assert status["cells"][0]["key"] == status["cells"][2]["key"]
    stats = client.stats()
    assert stats["specs_submitted"] == 3
    assert stats["specs_deduped"] == 1
    assert stats["cells"] == 2

    # Served results are byte-identical to a local fresh simulation.
    entry = client.result(spec_key(specs[0]))
    assert entry["fingerprint"] == result_fingerprint(
        execute_spec(specs[0]).unwrap()
    )

    # The stream replays one event per unique finished cell, then job-done.
    events = list(client.stream(job["job"]))
    assert [e["event"] for e in events[:-1]] == ["cell"] * 2
    assert all(e["status"] == "done" for e in events[:-1])
    assert [e["seq"] for e in events] == [0, 1, 2]
    assert events[-1] == {
        "event": "job-done", "job": job["job"], "total": 3,
        "seq": 2, "cancelled": False,
    }

    # Resubmission to the same server attaches to the completed in-memory
    # cells — instantly complete, nothing re-simulated.
    rerun = client.submit_specs(specs)
    assert rerun["complete"]
    assert all(c["status"] == "done" for c in rerun["cells"])
    assert client.stats()["specs_deduped"] == 3

    # A *fresh* daemon over the same store directory resolves the whole
    # batch from the persistent cache without touching a worker.
    with running_server(ResultStore(server.store.root)) as second:
        warm_client = ServeClient(f"http://127.0.0.1:{second.port}")
        warm = warm_client.submit_specs(specs)
        assert warm["complete"]
        assert all(c["status"] == "cached" for c in warm["cells"])
        assert warm_client.stats()["cache"]["hits"] == 2
        # And the served entry is still the verified original.
        entry = warm_client.result(spec_key(specs[0]))
        assert entry["fingerprint"] == result_fingerprint(
            execute_spec(specs[0]).unwrap()
        )


def test_serve_shorthand_specs(server, client):
    job = client.submit([
        {
            "workload": "migratory-counters",
            "policy": "AD",
            "consistency": "SC",
            "preset": "tiny",
            "overrides": {"iterations": 6},
        }
    ])
    status = client.wait(job["job"], timeout=120)
    assert status["cells"][0]["status"] == "done"
    # The shorthand keys identically to the equivalent RunSpec.
    assert status["cells"][0]["key"] == spec_key(
        RunSpec.make(
            "migratory-counters", ProtocolPolicy.adaptive_default(),
            preset="tiny", iterations=6,
        )
    )


def test_serve_failed_cell_reported_not_fatal(server, client):
    job = client.submit([
        {"workload": "no-such-workload", "policy": "AD", "preset": "tiny"}
    ])
    status = client.wait(job["job"], timeout=120)
    [cell] = status["cells"]
    assert cell["status"] == "failed"
    assert "no-such-workload" in cell["error"]
    assert client.healthz()["ok"]  # daemon survived the failure


def test_serve_rejects_bad_requests(server, client):
    with pytest.raises(ServeError) as excinfo:
        client.submit([])
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit([{"policy": "AD"}])  # no workload
    assert excinfo.value.status == 400
    for body in (b"[]", b'"x"'):  # a body that is not a JSON object
        with pytest.raises(ServeError) as excinfo:
            client._request_raw("POST", "/jobs", body)
        assert excinfo.value.status == 400, body
    for entry in (1, [1], None):  # a spec entry that is not an object
        with pytest.raises(ServeError) as excinfo:
            client.submit([entry])
        assert excinfo.value.status == 400, entry
    # One bad spec rejects the whole batch: its valid leading cell is
    # neither registered nor run, and no job id is used up.
    valid = spec_to_json(tiny_specs()[0])
    with pytest.raises(ServeError) as excinfo:
        client.submit([valid, {"policy": "AD"}])
    assert excinfo.value.status == 400
    assert client.stats()["cells"] == 0
    assert client.submit([valid])["job"] == "job-1"
    with pytest.raises(ServeError) as excinfo:
        client.job("job-999")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.result("0" * 64)
    assert excinfo.value.status == 404


def _raw_request(port, payload, half_close=False, timeout=10):
    """Send raw bytes over a real socket; return everything read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


def _post_jobs(headers, body=b""):
    return b"POST /jobs HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n" + body


@pytest.mark.parametrize("payload, half_close, reason", [
    (_post_jobs(b"Content-Length: abc\r\n"), False, b"bad Content-Length"),
    (_post_jobs(b"Content-Length: -5\r\n"), False, b"bad Content-Length"),
    (_post_jobs(b"Content-Length: 100\r\n", b'{"specs": '), True,
     b"body ended after 10 of 100 bytes"),
    (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024) + b"\r\n\r\n",
     False, b"too long"),
    (b"GET /healthz HTTP/1.1\r\n"
     + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS + 1)) + b"\r\n",
     False, b"too many headers"),
    # Past CPython's 4300-digit int() limit.
    (_post_jobs(b"Content-Length: " + b"9" * 4301 + b"\r\n"), False,
     b"bad Content-Length"),
], ids=["non-numeric-length", "negative-length", "short-body", "long-header",
        "too-many-headers", "huge-length"])
def test_serve_malformed_http_gets_400(server, client, payload, half_close, reason):
    reply = _raw_request(server.port, payload, half_close)
    assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert reason in reply
    assert client.healthz()["ok"]  # the daemon keeps serving


def test_serve_stream_after_last_event_of_finished_job_closes(server, client):
    # The job's cells have already run, so no worker is forked while the
    # stream connection is open (a forked worker would inherit the socket
    # and hold its EOF back).
    job = client.submit_specs(tiny_specs())
    client.wait(job["job"], timeout=120)
    done_seq = list(client.stream(job["job"]))[-1]["seq"]
    for after in (done_seq, 999):
        request = (
            f"GET /jobs/{job['job']}/stream?after={after} HTTP/1.1\r\n"
            f"Host: x\r\n\r\n"
        ).encode()
        reply = _raw_request(server.port, request, timeout=5)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n"), after
        assert body == b"", after


# ---------------------------------------------------------------------------
# Resilience: crash requeue, deadlines, cancellation, chaos, client retries


import io
import time
import urllib.error

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.experiments.parallel import run_many
from repro.serve import ServeFaultPlan, ServeUnavailable
from repro.serve.client import _error_body


def _hang_spec(seed, seconds=30.0):
    return RunSpec.make(
        "test-hang", ProtocolPolicy.adaptive_default(),
        preset="tiny", seconds=seconds, seed=seed,
    )


def test_serve_worker_kill_requeues_and_matches_undisturbed_run(tmp_path):
    """Acceptance: a cell whose worker is killed by ServeFaultPlan is
    requeued on a rebuilt pool and its result is byte-identical (same
    fingerprint) to an undisturbed local run."""
    faults = ServeFaultPlan(seed=11, kill_fraction=1.0, max_kills=1,
                            kill_delay=0.02)
    # The first cell sleeps long enough that the 20ms-delayed kill lands
    # while it is still executing; the rest are ordinary tiny cells.
    specs = [_hang_spec(seed=9, seconds=0.75)] + tiny_specs()
    with running_server(ResultStore(tmp_path / "cache"), faults=faults) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        job = client.submit_specs(specs)
        status = client.wait(job["job"], timeout=120)
        assert status["complete"]
        assert all(c["status"] == "done" for c in status["cells"])
        # The kill actually happened and was recovered from.
        scheduler = client.stats()["scheduler"]
        assert scheduler["fault_kills"] == 1
        assert scheduler["worker_crashes"] >= 1
        assert scheduler["requeues"] >= 1
        assert scheduler["executor_rebuilds"] >= 1
        # A requeued cell consumed more than one attempt.
        assert max(c["attempts"] for c in status["cells"]) >= 2
        for spec in specs:
            entry = client.result(spec_key(spec))
            assert entry["fingerprint"] == result_fingerprint(
                execute_spec(spec).unwrap()
            )


def test_serve_cell_timeout_requeues_then_fails_with_attempts(tmp_path):
    with running_server(
        ResultStore(tmp_path / "cache"),
        cell_timeout=0.5, max_attempts=2,
    ) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        job = client.submit_specs([_hang_spec(seed=1)])
        status = client.wait(job["job"], timeout=60)
        [cell] = status["cells"]
        assert cell["status"] == "failed"
        assert cell["attempts"] == 2
        assert "CellTimeout" in cell["error"]
        assert "0.5s per-cell deadline" in cell["error"]
        assert "gave up after 2 attempt(s)" in cell["error"]
        scheduler = client.stats()["scheduler"]
        assert scheduler["timeouts"] == 2
        assert scheduler["requeues"] == 1
        assert scheduler["executor_rebuilds"] == 2
        # The daemon survived and still serves healthy cells.
        healthy = client.submit_specs([tiny_specs()[0]])
        done = client.wait(healthy["job"], timeout=120)
        assert done["cells"][0]["status"] == "done"


def test_serve_delete_cancels_queued_cells_and_resubmit_revives(tmp_path):
    with running_server(ResultStore(tmp_path / "cache"), workers=1) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        # One slot: the first hang occupies it, the rest sit queued.
        specs = [_hang_spec(seed=s) for s in (1, 2, 3)]
        job = client.submit_specs(specs)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if any(c["status"] == "running"
                   for c in client.job(job["job"])["cells"]):
                break
            time.sleep(0.02)
        cancelled = client.cancel(job["job"])
        assert cancelled["cancelled"]
        counts = cancelled["counts"]
        # The running cell keeps its worker; the queued ones are dropped.
        assert counts.get("cancelled", 0) == 2
        by_status = {c["key"]: c for c in cancelled["cells"]}
        dropped = [c for c in cancelled["cells"] if c["status"] == "cancelled"]
        assert all("cancelled by client" in c["error"] for c in dropped)
        assert client.stats()["scheduler"]["cancelled_jobs"] == 1
        # Cancelling again is idempotent.
        assert client.cancel(job["job"])["counts"] == counts
        # A new submission revives a cancelled cell instead of serving
        # the stale terminal state.
        revived = client.submit_specs([specs[1]])
        status = {c["key"]: c["status"] for c in revived["cells"]}
        assert set(status.values()) <= {"queued", "running"}


def test_serve_stream_resumes_across_dropped_frames(tmp_path):
    faults = ServeFaultPlan(seed=5, drop_frame_fraction=1.0, max_drops=2)
    with running_server(ResultStore(tmp_path / "cache"), faults=faults) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        specs = tiny_specs()
        job = client.submit_specs(specs)
        client.wait(job["job"], timeout=120)
        events = list(client.stream(job["job"]))
        # Exactly once, in order, despite two dropped connections.
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[-1]["event"] == "job-done"
        assert client.stats()["faults"]["drops"] == 2


def test_error_body_prefers_payload_over_status_line():
    def http_error(body):
        return urllib.error.HTTPError(
            "http://x/jobs", 500, "Internal Server Error",
            {}, io.BytesIO(body),
        )

    assert _error_body(http_error(b'{"error": "boom"}')) == {"error": "boom"}
    # Satellite: a non-JSON body (traceback, proxy page) is surfaced
    # verbatim instead of being collapsed to the reason phrase.
    assert _error_body(http_error(b"Traceback: stack trace text\n")) == (
        "Traceback: stack trace text"
    )
    assert _error_body(http_error(b"")) == "Internal Server Error"


def test_client_reports_unreachable_daemon(tmp_path):
    client = ServeClient("http://127.0.0.1:1", timeout=0.5, retries=1)
    with pytest.raises(ServeUnavailable, match="GET .*healthz"):
        client.healthz()


def test_run_many_serve_backend_executes_remotely_and_warms_local_store(
    tmp_path,
):
    specs = tiny_specs()
    with running_server(ResultStore(tmp_path / "daemon-cache")) as srv:
        local = ResultStore(tmp_path / "local-cache")
        outcomes = run_many(
            specs, store=local, backend="serve",
            serve_url=f"http://127.0.0.1:{srv.port}",
        )
        assert all(o.ok and o.cached for o in outcomes)
        for spec, outcome in zip(specs, outcomes):
            assert result_fingerprint(outcome.unwrap()) == result_fingerprint(
                execute_spec(spec).unwrap()
            )
        # Remote results warmed the local store: a second sweep is local.
        assert local.stats.stores == 2
        rerun = run_many(specs, store=ResultStore(local.root),
                         backend="serve", serve_url="http://127.0.0.1:1")
        assert all(o.ok and o.cached for o in rerun)


def test_run_many_serve_backend_falls_back_to_local(capsys):
    specs = tiny_specs()
    outcomes = run_many(specs, backend="serve",
                        serve_url="http://127.0.0.1:1")
    assert all(o.ok for o in outcomes)
    assert not any(o.cached for o in outcomes)
    assert "falling back to local execution" in capsys.readouterr().err
    for spec, outcome in zip(specs, outcomes):
        assert result_fingerprint(outcome.unwrap()) == result_fingerprint(
            execute_spec(spec).unwrap()
        )


# ---------------------------------------------------------------------------
# Telemetry: /metrics scrape, artifact upload, correlation ids


import urllib.request

from repro.obs.metrics import MetricsRegistry, parse_exposition, sample_count


def test_metrics_endpoint_scrapes_job_lifecycle(tmp_path):
    """Acceptance: a real-HTTP scrape parses as Prometheus text, exposes a
    wide series surface, and the job-lifecycle counters actually move."""
    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "cache", metrics_registry=registry)
    with running_server(store, registry=registry) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")

        before = parse_exposition(client.metrics())
        assert before["repro_serve_jobs_submitted_total"].value() == 0

        job = client.submit_specs(tiny_specs())
        status = client.wait(job["job"], timeout=120)
        assert status["complete"]

        # Raw urllib fetch: assert the content type advertises the format.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{srv.port}/metrics", timeout=10
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode()

        families = parse_exposition(text)
        # The ISSUE's floor: at least 20 distinct series on a fresh daemon.
        assert sample_count(families) >= 20
        assert families["repro_serve_jobs_submitted_total"].value() == 1
        assert families["repro_serve_jobs_finished_total"].value() == 1
        assert families["repro_serve_specs_submitted_total"].value() == 2
        assert families["repro_serve_cells_total"].value({"status": "done"}) == 2
        assert families["repro_serve_cell_seconds"].value(
            sample_name="repro_serve_cell_seconds_count"
        ) == 2
        # HTTP traffic is labeled by normalized route, not raw path.
        http = families["repro_http_requests_total"]
        assert http.value({"route": "/metrics"}) >= 2
        assert http.value({"route": "/jobs"}) == 1
        assert http.value({"route": "/jobs/{id}"}) >= 1
        # The store served through this daemon reports its own counters.
        assert families["repro_store_stores_total"].value() == 2
        # Worker/queue gauges evaluate at scrape time.
        assert families["repro_serve_workers"].value() == 1
        assert families["repro_serve_cells_running"].value() == 0


def test_artifact_upload_roundtrip_over_http(tmp_path):
    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "cache", metrics_registry=registry)
    with running_server(store, registry=registry) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        spec = tiny_specs()[0]
        job = client.submit_specs([spec])
        client.wait(job["job"], timeout=120)
        key = spec_key(spec)

        payload = b"\x00\x01binary trace bytes\xff"
        receipt = client.put_artifact(key, "trace.bin", payload)
        assert receipt == {"key": key, "name": "trace.bin", "bytes": len(payload)}
        client.put_artifact(key, "notes.txt", "plain text artifact")

        assert client.artifacts(key) == ["notes.txt", "trace.bin"]
        assert client.get_artifact(key, "trace.bin") == payload
        assert client.get_artifact(key, "notes.txt") == b"plain text artifact"
        # The bytes landed in the store's artifact dir for the cell.
        assert store.get_artifact(key, "trace.bin") == payload

        with pytest.raises(ServeError) as excinfo:
            client.put_artifact(key, "../escape", b"nope")
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.get_artifact(key, "missing.bin")
        assert excinfo.value.status == 404


def test_correlation_id_threads_client_to_job(tmp_path):
    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "cache", metrics_registry=registry)
    with running_server(store, registry=registry) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}", cid="sweep-e2e42")
        job = client.submit_specs([tiny_specs()[0]])
        client.wait(job["job"], timeout=120)
        rows = client._request("GET", "/jobs")["jobs"]
        assert [r["cid"] for r in rows] == ["sweep-e2e42"]
        assert rows[0]["complete"] and rows[0]["total"] == 1
