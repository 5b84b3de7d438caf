"""``repro-sim top``: pure-renderer tests plus one live round-trip."""

from repro.obs.metrics import MetricsRegistry
from repro.serve.top import _bar, render_dashboard


def _stats():
    return {
        "workers": 4,
        "cells_by_status": {"running": 2, "queued": 3, "done": 5, "failed": 1},
        "cache": {"hit_rate": 0.5, "hits": 5, "misses": 5, "entries": 10},
        "scheduler": {
            "requeues": 1, "timeouts": 0, "worker_crashes": 1,
            "executor_rebuilds": 1, "fault_kills": 2,
        },
    }


def _metrics_text():
    registry = MetricsRegistry()
    http = registry.counter("repro_http_requests_total", "", labelnames=("method", "route"))
    http.labels("GET", "/stats").inc(40)
    http.labels("POST", "/jobs").inc(2)
    registry.counter("repro_http_errors_total", "", labelnames=("route",)).labels("/jobs").inc()
    seconds = registry.histogram("repro_http_request_seconds", "", buckets=(0.1, 1.0))
    seconds.observe(0.05)
    seconds.observe(0.15)
    cell = registry.histogram("repro_serve_cell_seconds", "", buckets=(1.0, 10.0))
    cell.observe(2.0)
    cell.observe(4.0)
    return registry.exposition()


def test_bar_clamps_and_scales():
    assert _bar(0.0, 4) == "[....]"
    assert _bar(0.5, 4) == "[##..]"
    assert _bar(1.0, 4) == "[####]"
    assert _bar(7.5, 4) == "[####]"
    assert _bar(-1.0, 4) == "[....]"


def test_render_dashboard_stats_only():
    frame = render_dashboard(_stats(), url="http://h:8077")
    assert "repro-sim top — http://h:8077" in frame
    assert "2/4 busy" in frame
    assert "queue     3 waiting" in frame
    assert "queued=3" in frame and "failed=1" in frame
    assert "50% hit rate" in frame
    assert "kills 2" in frame
    assert "http" not in frame.splitlines()[-1]  # no metrics: no http line


def test_render_dashboard_with_metrics_and_jobs():
    jobs = [
        {"job": "job-1", "total": 4, "finished": 4, "complete": True,
         "cancelled": False, "cid": "sweep-abc"},
        {"job": "job-2", "total": 10, "finished": 5, "complete": False,
         "cancelled": False},
    ]
    frame = render_dashboard(_stats(), _metrics_text(), jobs=jobs)
    assert "http      42 requests, mean 100.0 ms, errors 1" in frame
    assert "attempts  2 executed, mean cell 3.00 s" in frame
    assert "jobs      (2 total, last 2)" in frame
    assert "4/4 done" in frame
    assert "cid=sweep-abc" in frame
    assert "5/10" in frame


def test_render_dashboard_tolerates_empty_documents():
    frame = render_dashboard({})
    assert frame.startswith("repro-sim top")
    assert "none yet" in frame


def test_fetch_frame_against_live_daemon(tmp_path):
    from repro.experiments.store import ResultStore
    from repro.serve.top import fetch_frame
    from tests.experiments.test_serve import running_server

    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "cache")
    with running_server(store, registry=registry) as srv:
        frame = fetch_frame(f"http://127.0.0.1:{srv.port}")
    assert "workers" in frame
    assert "cache" in frame
    assert "http" in frame  # /metrics scrape succeeded and parsed
