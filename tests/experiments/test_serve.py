"""The ``repro-sim serve`` daemon, end to end over real HTTP.

The server runs its loop in a background thread bound to an ephemeral
port; the stdlib ``ServeClient`` talks to it exactly as a
remote submitter would.  Under test: batch submission, cross-submission
dedupe by content address, cache-backed instant resolution on resubmit,
job status by polling, and result fingerprints matching a local run.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.policy import ProtocolPolicy
from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, execute_spec, result_fingerprint
from repro.experiments.store import (
    CODE_VERSION_ENV,
    ResultStore,
    result_from_json,
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
    """An ExperimentServer on an ephemeral port, its loop in a daemon thread."""
    srv = ExperimentServer(store, workers=workers, port=0, **server_kwargs)
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.close()
        thread.join(10)
        assert not thread.is_alive(), "the serve loop did not stop"


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
            "migratory-counters", ProtocolPolicy("AD"),
            preset="tiny", iterations=6, tag="mig/AD",
        ),
        RunSpec.make(
            "migratory-counters", ProtocolPolicy("W-I"),
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

    # The final status holds every cell's terminal state, and it is
    # final: polling again returns the same document.
    assert status["counts"] == {"done": 3}
    assert status["cancelled"] is False
    assert client.job(job["job"]) == status

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
            "migratory-counters", ProtocolPolicy("AD"),
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


def test_serve_holds_no_result_once_a_cell_ends(tmp_path):
    """Terminal cells keep status, error and attempts; results stay in
    the store, which ``/results/<key>`` reads."""
    cold, warm = tiny_specs()
    store = ResultStore(tmp_path / "cache")
    store.put(execute_spec(warm))
    with running_server(store) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        jobs = [
            client.submit_specs([cold])["job"],
            client.submit_specs([warm])["job"],
            client.submit([{"workload": "no-such-workload", "policy": "AD",
                            "preset": "tiny"}])["job"],
        ]
        cells = [client.wait(job, timeout=120)["cells"][0] for job in jobs]
        assert [cell["status"] for cell in cells] == ["done", "cached", "failed"]
        assert all(
            cell.outcome is None or cell.outcome.result is None
            for cell in srv.cells.values()
        )
        assert "no-such-workload" in cells[2]["error"]
        assert cells[2]["attempts"] == 1
        for spec in (cold, warm):
            entry = client.result(spec_key(spec))
            assert entry["fingerprint"] == result_fingerprint(
                result_from_json(entry["result"])
            ) == result_fingerprint(execute_spec(spec).unwrap())
            # The reply is the entry file, byte for byte.
            path = f"/results/{spec_key(spec)}"
            assert client._request_raw("GET", path) == store.entry_path(
                spec_key(spec)).read_bytes()
        # An entry file cut short is no entry.
        entry_file = store.entry_path(spec_key(cold))
        entry_file.write_bytes(entry_file.read_bytes()[:-40])
        with pytest.raises(ServeError) as excinfo:
            client.result(spec_key(cold))
        assert excinfo.value.status == 404


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
    # A policy is a protocol name plus Hybrid's budget: an unknown name,
    # the removed field spellings, a budget on another protocol, a
    # budget that is no int, and an empty or null policy are refused
    # before anything is queued.
    for policy in ({"name": "MOESI"}, {"protocol": "mesi"}, {"adaptive": True},
                   {"name": "Dragon", "update_threshold": 3},
                   {"name": "Hybrid", "update_threshold": "4"}, "", None):
        with pytest.raises(ServeError) as excinfo:
            client.submit([{"workload": "migratory-counters", "preset": "tiny",
                            "policy": policy}])
        assert excinfo.value.status == 400, policy
    # One bad spec rejects the whole batch: its valid leading cell is
    # neither registered nor run, and no job id is used up.
    valid = spec_to_json(tiny_specs()[0])
    with pytest.raises(ServeError) as excinfo:
        client.submit([valid, {"policy": "AD"}])
    assert excinfo.value.status == 400
    assert client.stats()["cells"] == 0
    assert client.submit([valid])["job"] == "job-1"
    # A job is followed by polling GET /jobs/<id>: there is no job
    # listing and no progress stream.
    for path in ("/jobs", "/jobs/job-1/stream", "/jobs/job-1/stream?after=0"):
        with pytest.raises(ServeError) as excinfo:
            client._request_raw("GET", path)
        assert excinfo.value.status == 404, path
        assert excinfo.value.body["error"].startswith("no route GET /jobs"), path
    with pytest.raises(ServeError) as excinfo:
        client.job("job-999")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.result("0" * 64)
    assert excinfo.value.status == 404
    # A path that climbs out of the store is no route: nothing is written
    # next to the store's objects, and nothing is served from there.
    for method, body in (("POST", b"planted"), ("GET", None)):
        with pytest.raises(ServeError) as excinfo:
            client._request_raw(method, "/artifacts/../planted.txt", body)
        assert excinfo.value.status == 404, method
    assert not (server.store.root / "planted.txt").exists()
    # A result key is a spec_key, so a crafted one names no file outside
    # objects/, not even one shaped like a stored entry.
    client.wait("job-1", timeout=120)  # objects/ exists from here on
    entry = client.result(spec_key(tiny_specs()[0]))
    (server.store.root / "..planted.json").write_text(json.dumps(entry))
    with pytest.raises(ServeError) as excinfo:
        client.result("..planted")
    assert excinfo.value.status == 404


def test_serve_rejects_unknown_presets(server, client):
    for preset in ("tnyi", 5):
        with pytest.raises(ServeError) as excinfo:
            client.submit([{"workload": "water", "policy": "AD", "preset": preset}])
        assert excinfo.value.status == 400, preset
        assert "choose from tiny, default, paper" in str(excinfo.value)
    assert client.stats()["cells"] == 0


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


def test_serve_reassembles_a_request_sent_in_chunks(server):
    # An older client also sent a "cid" key; the daemon ignores it.
    body = json.dumps({"specs": [spec_to_json(tiny_specs()[0])],
                       "cid": "sweep-57dda867b1a3"}).encode()
    payload = _post_jobs(b"Content-Length: %d\r\n" % len(body), body)
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        for cut in (slice(0, 20), slice(20, len(payload) - 7),
                    slice(len(payload) - 7, None)):
            sock.sendall(payload[cut])
            time.sleep(0.05)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, doc = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    status = json.loads(doc)
    assert status["job"] == "job-1" and status["total"] == 1
    assert status["cells"][0]["key"] == spec_key(tiny_specs()[0])


# ---------------------------------------------------------------------------
# Resilience: crash requeue, deadlines, cancellation, chaos, client retries


import io
import urllib.error

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.experiments.parallel import run_many
from repro.serve import ServeFaultPlan, ServeUnavailable
from repro.serve.client import _error_body


def _hang_spec(seed, seconds=30.0):
    return RunSpec.make(
        "test-hang", ProtocolPolicy("AD"),
        preset="tiny", seconds=seconds, seed=seed,
    )


def test_serve_worker_kill_requeues_and_matches_undisturbed_run(tmp_path):
    """Acceptance: a cell whose worker is killed by ServeFaultPlan is
    requeued on a fresh worker and its result is byte-identical (same
    fingerprint) to an undisturbed local run.  Every count ``/stats``
    reports afterwards is also the value of its ``/metrics`` family."""
    faults = ServeFaultPlan(max_kills=1)
    registry = MetricsRegistry()
    # The first cell sleeps long enough that the 20ms-delayed kill lands
    # while it is still executing; the rest are ordinary tiny cells.
    specs = [_hang_spec(seed=9, seconds=0.75)] + tiny_specs()
    with running_server(
        ResultStore(tmp_path / "cache"), faults=faults, registry=registry,
    ) as srv:
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
        # A requeued cell consumed more than one attempt.
        assert max(c["attempts"] for c in status["cells"]) >= 2
        for spec in specs:
            entry = client.result(spec_key(spec))
            assert entry["fingerprint"] == result_fingerprint(
                execute_spec(spec).unwrap()
            )
        # One count per event: the scrape renders the numbers /stats reports.
        stats = client.stats()
        families = parse_exposition(client.metrics())
        scheduler_families = {
            "requeues": "repro_serve_requeues_total",
            "timeouts": "repro_serve_timeouts_total",
            "worker_crashes": "repro_serve_worker_crashes_total",
            "cancelled_jobs": "repro_serve_jobs_cancelled_total",
            "fault_kills": "repro_serve_fault_kills_total",
        }
        assert set(stats["scheduler"]) == set(scheduler_families)
        pairs = [
            (family, stats["scheduler"][key])
            for key, family in scheduler_families.items()
        ] + [
            (f"repro_store_{key}_total", stats["cache"][key])
            for key in ("hits", "misses", "stores", "corrupt", "evictions",
                        "evicted_bytes", "stored_bytes")
        ] + [
            ("repro_serve_jobs_submitted_total", stats["jobs"]),
            ("repro_serve_specs_submitted_total", stats["specs_submitted"]),
            ("repro_serve_specs_deduped_total", stats["specs_deduped"]),
            ("repro_serve_fault_kills_total", stats["faults"]["kills"]),
        ]
        assert [(name, families[name].value()) for name, _ in pairs] == pairs
        assert stats["cache"]["stores"] == 3
        assert stats["cache"]["stored_bytes"] > 0


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


def test_serve_delete_keeps_a_queued_cell_another_job_shares(tmp_path):
    """Cancelling a job abandons only the queued cells no other live job
    references: a shared one stays queued and runs for the other job."""
    with running_server(ResultStore(tmp_path / "cache"), workers=1) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        # One slot: the hang occupies it, so the shared cell waits queued.
        shared = tiny_specs()[0]
        job_a = client.submit_specs([_hang_spec(seed=9, seconds=0.75), shared])
        job_b = client.submit_specs([shared])
        cancelled = client.cancel(job_a["job"])
        assert cancelled["cancelled"]
        assert cancelled["cells"][1]["status"] == "queued"
        assert "cancelled" not in cancelled["counts"]
        [cell] = client.wait(job_b["job"], timeout=60)["cells"]
        assert cell["status"] == "done"


def test_finished_job_status_is_final_after_a_revival(tmp_path):
    """Reviving a cancelled job's cell for a later job leaves the
    cancelled job's status as it was: complete, with its cell cancelled,
    so waiting on it does not wait for the revived cell's run."""
    with running_server(ResultStore(tmp_path / "cache"), workers=1) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        # One slot: the hang occupies it, so the tiny cell waits queued.
        hang = client.submit_specs([_hang_spec(seed=1, seconds=1.5)])["job"]
        deadline = time.monotonic() + 10
        while client.job(hang)["cells"][0]["status"] != "running":
            assert time.monotonic() < deadline, "the hang never started"
            time.sleep(0.02)
        tiny = tiny_specs()[0]
        job_a = client.submit_specs([tiny])["job"]
        cancelled = client.cancel(job_a)
        assert cancelled["complete"] and cancelled["counts"] == {"cancelled": 1}
        job_b = client.submit_specs([tiny])["job"]
        assert client.job(job_a) == cancelled
        assert client.wait(job_a, timeout=0.5) == cancelled
        assert not client.job(job_b)["complete"]
        assert client.wait(job_b, timeout=60)["counts"] == {"done": 1}
        assert client.job(job_a) == cancelled


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
# Telemetry: /metrics scrape


import urllib.request

from repro.obs.metrics import MetricsRegistry, parse_exposition, sample_count


def test_metrics_endpoint_scrapes_job_lifecycle(tmp_path):
    """Acceptance: a real-HTTP scrape parses as Prometheus text, exposes a
    wide series surface, and the job-lifecycle counters actually move."""
    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "cache")
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


def test_warm_run_many_does_not_poll_a_complete_job(tmp_path):
    """A job whose cells are all in the store is complete in the POST
    reply, so ``run_many`` reads its results without a status poll."""
    spec = tiny_specs()[0]
    store = ResultStore(tmp_path / "cache")
    store.put(execute_spec(spec))
    registry = MetricsRegistry()
    with running_server(store, registry=registry) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        [outcome] = client.run_many([spec])
        assert outcome.ok and outcome.cached
        assert result_fingerprint(outcome.result) == result_fingerprint(
            execute_spec(spec).unwrap()
        )
        http = parse_exposition(client.metrics())["repro_http_requests_total"]
        assert http.value({"route": "/jobs"}) == 1
        assert http.value({"route": "/jobs/{id}"}) is None  # no such series
        assert http.value({"route": "/results/{key}"}) == 1


# ---------------------------------------------------------------------------
# Scheduler regressions: a cell must neither run twice nor be stranded


def test_serve_resubmitted_cancelled_cell_runs_once(tmp_path):
    """A cancelled cell that a new job revives runs exactly once: the
    abandoned cell's task, still parked on the busy slot, must exit
    instead of running the revived cell a second time."""
    registry = MetricsRegistry()
    with running_server(
        ResultStore(tmp_path / "cache"), workers=1, registry=registry,
    ) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        tiny = tiny_specs()[0]
        job = client.submit_specs([_hang_spec(seed=1, seconds=1.5), tiny])
        deadline = time.monotonic() + 10
        while client.job(job["job"])["cells"][0]["status"] != "running":
            assert time.monotonic() < deadline, "the hang never started"
            time.sleep(0.02)
        assert client.cancel(job["job"])["cells"][1]["status"] == "cancelled"
        revived = client.submit_specs([tiny])
        [cell] = client.wait(revived["job"], timeout=60)["cells"]
        assert cell["status"] == "done"
        assert cell["attempts"] == 1
        time.sleep(0.5)  # room for a stale task to start a second run
        families = parse_exposition(client.metrics())
        # One attempt for the hang and one for the revived cell.
        assert families["repro_serve_cell_attempts_total"].value() == 2


def test_serve_attempt_lost_before_its_worker_reads_it_is_requeued(
    tmp_path, monkeypatch,
):
    """A work item whose worker died before reading it costs the cell one
    attempt like any lost worker (the request write fails, the pool is
    discarded), instead of stranding the cell as running."""
    send = parallel._Worker.send
    calls = []

    def lose_first(self, request):
        calls.append(request)
        if len(calls) == 1:
            self.kill()
            # Dead, with its pipes closed, but not reaped: the pool reaps it.
            os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
        send(self, request)

    monkeypatch.setattr(parallel._Worker, "send", lose_first)
    with running_server(ResultStore(tmp_path / "cache")) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        job = client.submit_specs([tiny_specs()[0]])
        [cell] = client.wait(job["job"], timeout=20)["cells"]
        assert cell["status"] == "done"
        assert cell["attempts"] == 2
        assert client.stats()["scheduler"]["worker_crashes"] == 1
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# The CLI daemon as a process: start, serve a cold job, stop on Ctrl-C


REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _children(pid):
    """The pids whose parent is ``pid``, read from ``/proc/<pid>/stat``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # it exited meanwhile
            continue
        # "pid (comm) state ppid ...", and comm may hold spaces.
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            children.append(int(entry))
    return children


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_cli_daemon_serves_a_cold_job_and_exits_on_sigint(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("repro-sim serve: http://"), banner
        url = banner.split()[2]
        client = ServeClient(url)
        status = client.wait(client.submit_specs(tiny_specs())["job"], timeout=60)
        assert [cell["status"] for cell in status["cells"]] == ["done", "done"]
        maps = f"/proc/{proc.pid}/maps"
        if os.path.exists(maps):
            with open(maps) as handle:
                assert "libssl" not in handle.read()
            assert _children(proc.pid)  # the cells really forked
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert out.rstrip().endswith("shutting down")
        # The daemon leads its own session, so its workers share its
        # process group, which must empty.
        deadline = time.monotonic() + 5
        while _group_alive(proc.pid):
            assert time.monotonic() < deadline, "a worker outlived the daemon"
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
