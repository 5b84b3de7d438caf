"""The ``repro-sim serve`` daemon: HTTP job queue over the result store.

Dependency-free by design (the simulator has no third-party runtime
deps, and its job server should not be the thing that changes that):
one :mod:`selectors` loop on the thread that calls
:meth:`ExperimentServer.serve_forever`, plus a minimal HTTP/1.1 request
parser (:func:`parse_request`) — enough for the JSON API below, not a
general web server.  Not asyncio or ``http.server``: both import
``ssl``, which plain HTTP never uses.

API
---

``GET    /healthz``            liveness + worker/cache configuration
``POST   /jobs``               submit a batch: ``{"specs": [<spec>, ...]}``
                               (spec wire form: ``store.spec_to_json``;
                               ``"policy"``/``"consistency"`` accept
                               shorthand names).  Response: job id plus one
                               cell record per spec — already-cached cells
                               resolve instantly, duplicates (within the
                               batch or against other clients' in-flight
                               cells) attach to the existing cell.  A
                               batch with a malformed spec is rejected
                               whole (400) before anything is registered
``GET    /jobs/<id>``          job status: per-cell state + counts; poll
                               it until ``complete`` (``ServeClient.wait``)
``DELETE /jobs/<id>``          cancel: queued/backoff cells not shared
                               with another live job are abandoned;
                               running cells finish (their work is kept)
``GET    /results/<key>``      the stored entry (spec, fingerprint, result),
                               its file's bytes as they are; 404 unless
                               ``key`` is a ``spec_key`` of a well-formed
                               entry
``GET    /stats``              cache stats + scheduler/resilience counters
``GET    /metrics``            Prometheus text exposition (version 0.0.4)

Every request is counted per route in ``repro_http_requests_total`` and
timed into ``repro_http_request_seconds``.  Every count ``/stats``
reports is kept once — on this server, its pool, its store, or its fault
plan — and ``/metrics`` renders the same integer as a ``repro_serve_*``
or ``repro_store_*`` counter (see :mod:`repro.obs.metrics`).
``POST /jobs`` ignores every key of its body but ``"specs"``.

Scheduling & resilience
-----------------------

Cold cells run on the same :class:`~repro.experiments.parallel.CellPool`
``run_many`` uses, stepped by the same
:class:`~repro.experiments.parallel.CellScheduler`, so both share one
scheduler loop and one failure model: a cell whose worker dies or whose
attempt overruns ``cell_timeout`` (counted from submission) costs one
attempt, that worker alone is killed and replaced, and the cell is
requeued after the seeded backoff, up to ``max_attempts`` before it
fails as ``CellTimeout`` or ``WorkerCrash`` with the attempt count in
its :class:`~repro.experiments.parallel.RunError`.  The scheduler keeps at
most ``workers`` attempts in flight, so a cell is only marked
``running`` when it actually occupies a worker.  Every unique cell
executes at most once no matter how many jobs reference it — the dedupe
map is keyed by the same content address the store uses.

HTTP, scheduling and store I/O share the loop's one thread: the pool
forks workers from this process, and a fork while another thread held a
lock (a metric's, say) could deadlock the child.  Each running
attempt's reply pipe sits in the loop's selector, so a reply (or a lost
worker's EOF) wakes the loop.  A socket pair carries only
:meth:`ExperimentServer.close`, the one call made from another thread.

A :class:`~repro.serve.faults.ServeFaultPlan` makes the recovery path
chaos-testable with budgeted worker kills.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import json
import selectors
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import parallel
from repro.experiments.parallel import CellPool, CellScheduler, RunSpec
from repro.experiments.store import ResultStore, spec_from_json, spec_key
from repro.obs import metrics as obs_metrics
from repro.serve.faults import KILL_DELAY, ServeFaultPlan

SERVE_SCHEMA = "repro-serve/1"

#: Request body ceiling (a sweep of ~10k cells fits comfortably).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Longest request or header line, newline excluded (64 KiB).
MAX_LINE_BYTES = 64 * 1024
#: Header lines per request (each line is separately capped).
MAX_HEADERS = 100
#: Longest ``Content-Length`` digit run accepted (leading zeros included).
MAX_LENGTH_DIGITS = 20

#: Cell statuses that never change again.
TERMINAL = ("done", "cached", "failed", "cancelled")
#: Why a cell went ``cancelled``: ``DELETE /jobs/<id>`` is the one way.
CANCEL_REASON = "cancelled by client"


class BadRequest(ValueError):
    """Client error: reported as a 400 with the message as the reason."""


@dataclass(eq=False)
class Cell(parallel.Cell):
    """One unique sweep cell and its lifecycle on this server.

    Beyond the pool's statuses a cell can be ``cached`` (served from the
    store) or ``cancelled``; ``key`` is its content address.  A terminal
    cell holds no result: ``/results/<key>`` reads it from the store, so
    ``outcome`` is kept only by a failed cell, for its error.
    """

    #: How many submitted specs (across all jobs) resolved to this cell.
    refs: int = 0

    def to_json(self) -> Dict[str, Any]:
        doc = {
            "key": self.key,
            "label": self.spec.label,
            "status": self.status,
            "refs": self.refs,
            "attempts": self.attempts,
        }
        if self.outcome is not None and self.outcome.error is not None:
            doc["error"] = str(self.outcome.error)
        elif self.status == "cancelled" and self.last_error:
            doc["error"] = self.last_error
        return doc


@dataclass
class Job:
    """One submitted batch: its cells, one per spec, in order.

    A job keeps the very cells it was given, so its status is final once
    they are: a later job that revives a cancelled cell gets a new
    :class:`Cell` and leaves this one as it was.
    """

    id: str
    cells: List[Cell] = field(default_factory=list)
    cancelled: bool = False
    finished: bool = False
    #: Unique cells not yet terminal.
    waiting: int = 0


@dataclass(eq=False)
class _Connection:
    """One client socket: the request bytes in, the response bytes out.

    The response is sent whole, then the connection closes.
    """

    sock: socket.socket
    received: bytearray = field(default_factory=bytearray)
    outgoing: bytearray = field(default_factory=bytearray)
    #: The parsed request's route label and start ("" until parsed).
    route: str = ""
    started: float = 0.0


class ExperimentServer:
    """The job-queue daemon (one instance per process)."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        cell_timeout: Optional[float] = None,
        max_attempts: int = 3,
        faults: Optional[ServeFaultPlan] = None,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.workers = max(1, workers)
        self.host = host
        self.port = port
        self.faults = faults
        self.cells: Dict[str, Cell] = {}
        self.jobs: Dict[str, Job] = {}
        self.submitted = 0
        self.deduped = 0
        self.cancelled_jobs = 0
        self._job_counter = 0
        #: Open jobs waiting on each cell key.
        self._waiters: Dict[str, List[Job]] = {}
        #: The loop's timers: a heap of (when, tiebreak, callback).
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._timer_ids = itertools.count()
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener = self._wake_r = self._wake_w = None
        self._closing = False
        #: Workers and failure model (``/stats`` reads its counters); no
        #: process starts until a cold cell needs one.
        self.pool = CellPool(self.workers, timeout=cell_timeout,
                             max_attempts=max_attempts)
        self.scheduler = CellScheduler(self.pool, self._settled,
                                       on_start=self._started)
        self.registry = registry if registry is not None else obs_metrics.REGISTRY
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Declare every family ``/metrics`` serves on ``self.registry``.

        Get-or-create semantics make this idempotent.  Gauges, and every
        counter of a count ``/stats`` also reports, read this instance at
        scrape time (the latest-constructed server on a shared registry
        wins, which is the one-daemon-per-process reality).
        """
        reg = self.registry
        self._m_http_requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by method and route pattern.",
            labelnames=("method", "route"),
        )
        self._m_http_errors = reg.counter(
            "repro_http_errors_total",
            "HTTP requests that ended in a 4xx/5xx, by route pattern.",
            labelnames=("route",),
        )
        self._m_http_seconds = reg.histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds spent handling one HTTP request.",
            labelnames=("route",),
            buckets=(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                     0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0),
        )
        self._m_jobs_finished = reg.counter(
            "repro_serve_jobs_finished_total", "Jobs whose cells all reached a terminal state.")
        self._m_cells_terminal = reg.counter(
            "repro_serve_cells_total",
            "Cells that reached a terminal state, by status.",
            labelnames=("status",),
        )
        self._m_cell_attempts = reg.counter(
            "repro_serve_cell_attempts_total", "Execution attempts started on workers.")
        self._m_cell_seconds = reg.histogram(
            "repro_serve_cell_seconds",
            "Wall-clock seconds of one cell execution attempt.",
        )
        for name, doc, read in (
            ("repro_serve_jobs_submitted_total", "Jobs accepted via POST /jobs.",
             lambda: len(self.jobs)),
            ("repro_serve_jobs_cancelled_total",
             "Jobs cancelled by DELETE /jobs/<id>.",
             lambda: self.cancelled_jobs),
            ("repro_serve_specs_submitted_total", "Specs received across all jobs.",
             lambda: self.submitted),
            ("repro_serve_specs_deduped_total",
             "Specs that attached to an existing in-flight or cached cell.",
             lambda: self.deduped),
            ("repro_serve_fault_kills_total",
             "Worker kills injected by the ServeFaultPlan.",
             lambda: self.faults.kills if self.faults else 0),
        ):
            reg.counter(name, doc).set_function(read)
        for count, name, doc in (
            ("requeues", "repro_serve_requeues_total",
             "Cells requeued after a crash or timeout."),
            ("timeouts", "repro_serve_timeouts_total",
             "Attempts that blew the per-cell deadline."),
            ("worker_crashes", "repro_serve_worker_crashes_total",
             "Attempts lost to a dead worker (its reply pipe hit EOF)."),
        ):
            reg.counter(name, doc).set_function(
                lambda count=count: self.pool.counts[count])
        for field_name, doc in (
            ("hits", "Fingerprint-verified result-cache hits."),
            ("misses", "Result-cache lookups that missed."),
            ("stores", "Result entries written."),
            ("corrupt",
             "Entries evicted because their fingerprint failed verification."),
            ("evictions", "Entries evicted by LRU prune."),
            ("evicted_bytes", "Bytes reclaimed by LRU prune."),
            ("stored_bytes", "Bytes of result entries written."),
        ):
            reg.counter(f"repro_store_{field_name}_total", doc).set_function(
                lambda field_name=field_name: getattr(self.store.stats, field_name))

        def count_cells(*statuses: str) -> int:
            return sum(1 for c in self.cells.values() if c.status in statuses)

        reg.gauge("repro_serve_workers", "Configured worker-pool width.").set_function(
            lambda: self.workers)
        reg.gauge(
            "repro_serve_cells_running", "Cells currently occupying a worker.",
        ).set_function(lambda: count_cells("running"))
        reg.gauge(
            "repro_serve_cells_queued",
            "Cells waiting for a worker (queued or in backoff).",
        ).set_function(lambda: count_cells("queued", "backoff"))
        reg.gauge(
            "repro_serve_jobs_open", "Jobs with a cell not yet terminal.",
        ).set_function(lambda: sum(1 for j in self.jobs.values() if not j.finished))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Bind the listening socket (the pool starts on first use).

        ``port=0`` picks an ephemeral port; ``self.port`` is updated to
        the bound one either way.  Call :meth:`serve_forever` next.
        """
        # getaddrinfo encodes a str host with the IDNA codec, which loads
        # encodings.idna, stringprep and unicodedata; an ASCII host
        # resolves the same as bytes.
        host = self.host or None
        if host is not None and host.isascii():
            host = host.encode()
        family, _, _, _, address = socket.getaddrinfo(
            host, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        self._listener = socket.create_server(address, family=family, backlog=100)
        self.port = self._listener.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock, on_ready in ((self._listener, self._accept),
                               (self._wake_r, self._drain_wake)):
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, on_ready)
        self._wake_w.setblocking(False)

    def serve_forever(self) -> None:
        """Run the loop on this thread until :meth:`close`, then release
        every socket and kill the workers."""
        assert self._selector is not None, "call start() first"
        try:
            while not self._closing:
                now = time.monotonic()
                while self._timers and self._timers[0][0] <= now:
                    heapq.heappop(self._timers)[2]()  # fire a due timer
                wake = self.scheduler.step()
                if self._timers and (wake is None or self._timers[0][0] < wake):
                    wake = self._timers[0][0]
                timeout = None if wake is None else max(0.0, wake - time.monotonic())
                for key, _ in self._selector.select(timeout):
                    key.data()
        finally:
            self.pool.close()
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()  # listener, wake-up, clients, workers
            self._selector.close()
            self._wake_w.close()

    def close(self) -> None:
        """Stop :meth:`serve_forever` before its next iteration (safe from
        any thread and from a signal handler: it sets a flag and wakes the
        loop's ``select()``)."""
        self._closing = True
        if self._wake_w is not None:
            # Full: a wake-up is already pending.  Closed: the loop is gone.
            with contextlib.suppress(OSError):
                self._wake_w.send(b"\0")

    def _drain_wake(self) -> None:
        with contextlib.suppress(BlockingIOError):
            self._wake_r.recv(4096)  # what is left wakes the next select()

    def _call_later(self, delay: float, callback: Callable[[], None]) -> None:
        heapq.heappush(self._timers, (time.monotonic() + delay,
                                      next(self._timer_ids), callback))

    # -- scheduling ----------------------------------------------------

    def submit(self, spec_docs: List[Dict[str, Any]]) -> Job:
        """Register a batch; returns the job with one cell per spec.

        The whole batch is parsed before anything is registered: a batch
        with one bad spec is rejected as a whole, without using up a job
        id or creating (and running) cells for its valid specs.
        """
        if not isinstance(spec_docs, list) or not spec_docs:
            raise BadRequest('body must be {"specs": [<spec>, ...]}')
        parsed: List[Tuple[RunSpec, str]] = []
        for doc in spec_docs:
            if not isinstance(doc, dict):
                raise BadRequest(f"bad spec {doc!r}: not a JSON object")
            try:
                spec = spec_from_json(doc)
                parsed.append((spec, spec_key(spec)))
            except (KeyError, TypeError, ValueError) as exc:
                raise BadRequest(f"bad spec {doc!r}: {exc}") from None
        self._job_counter += 1
        job = Job(id=f"job-{self._job_counter}")
        for spec, key in parsed:
            self.submitted += 1
            cell = self.cells.get(key)
            if cell is None or cell.status == "cancelled":
                # A cell an earlier job abandoned is revived as a new Cell:
                # the scheduler may still hold the abandoned one, queued or
                # in backoff, and must find it cancelled and drop it.
                cell = self.cells[key] = Cell(
                    spec, key=key, refs=cell.refs if cell else 0
                )
                # fetch() verified the entry's fingerprint; the result it
                # rebuilt is dropped here, as /results/<key> reads the store.
                if self.store.fetch(spec) is not None:
                    cell.status = "cached"
                    self._m_cells_terminal.labels(status="cached").inc()
                else:
                    self.scheduler.queue.append(cell)
            else:
                # The dedupe path: an identical cell is already cached,
                # queued, or running on behalf of another submission.
                self.deduped += 1
            cell.refs += 1
            job.cells.append(cell)
        self.jobs[job.id] = job
        for cell in dict.fromkeys(job.cells):
            if cell.status not in TERMINAL:
                job.waiting += 1
                self._waiters.setdefault(cell.key, []).append(job)
        if not job.waiting:
            self._finish_job(job)
        return job

    def _started(self, cell: Cell) -> None:
        """A cell's attempt went to a worker: wake the loop when it ends
        (the next ``scheduler.step()`` reads the reply)."""
        self._m_cell_attempts.inc()
        worker = cell.worker
        self._selector.register(worker, selectors.EVENT_READ, lambda: None)
        if self.faults is not None and self.faults.should_kill(cell.attempts):
            self._call_later(KILL_DELAY, lambda: self._fault_kill(cell, worker))

    def _fault_kill(self, cell: Cell, worker: Any) -> None:
        """ServeFaultPlan hook: kill ``worker`` if it still runs ``cell``."""
        if cell.worker is worker and cell.status == "running":
            worker.kill()

    def _settled(self, cell: Cell) -> None:
        """An attempt ended: requeued (``backoff``) or terminal."""
        # Before the next start() can fork: see CellPool.
        self._selector.unregister(cell.worker)
        self._m_cell_seconds.observe(time.monotonic() - cell.started)
        if cell.status == "backoff":
            return
        outcome = cell.outcome
        assert outcome is not None
        if outcome.ok:
            self.store.put(outcome)
            cell.outcome = None  # the store holds the result from here on
        self._m_cells_terminal.labels(status=cell.status).inc()
        self._report(cell)

    # -- job tracking --------------------------------------------------

    def _report(self, cell: Cell) -> None:
        """``cell`` went terminal: count it off every job waiting on it."""
        for job in self._waiters.pop(cell.key, ()):
            job.waiting -= 1
            if not job.waiting:
                self._finish_job(job)

    def _finish_job(self, job: Job) -> None:
        job.finished = True
        self._m_jobs_finished.inc()

    def cancel_job(self, job: Job) -> None:
        """Abandon the job's not-yet-running cells (unless shared).

        Running cells complete normally — their simulation work is kept
        and cached.  Queued/backoff cells referenced by another live job
        keep running for that job; the rest go terminal as ``cancelled``
        (a later submission revives them).
        """
        if job.cancelled or job.finished:
            return
        job.cancelled = True
        self.cancelled_jobs += 1
        for cell in dict.fromkeys(job.cells):
            # A queued or backoff cell is held only by the jobs waiting on
            # it; this one is cancelled already.
            if cell.status not in ("queued", "backoff") or any(
                not other.cancelled for other in self._waiters[cell.key]
            ):
                continue
            cell.status = "cancelled"
            cell.last_error = CANCEL_REASON
            self._m_cells_terminal.labels(status="cancelled").inc()
            self._report(cell)

    # -- status documents ----------------------------------------------

    def job_status(self, job: Job) -> Dict[str, Any]:
        cells = [cell.to_json() for cell in job.cells]
        counts: Dict[str, int] = {}
        for cell in cells:
            counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        finished = sum(counts.get(status, 0) for status in TERMINAL)
        return {
            "schema": SERVE_SCHEMA,
            "job": job.id,
            "total": len(cells),
            "finished": finished,
            "complete": finished == len(cells),
            "cancelled": job.cancelled,
            "counts": counts,
            "cells": cells,
        }

    def stats(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for cell in self.cells.values():
            by_status[cell.status] = by_status.get(cell.status, 0) + 1
        doc = {
            "schema": SERVE_SCHEMA,
            "workers": self.workers,
            "jobs": len(self.jobs),
            "cells": len(self.cells),
            "cells_by_status": by_status,
            "specs_submitted": self.submitted,
            "specs_deduped": self.deduped,
            "cache": self.store.summary(),
            "scheduler": dict(
                self.pool.counts,
                cancelled_jobs=self.cancelled_jobs,
                fault_kills=self.faults.kills if self.faults else 0,
            ),
            "resilience": {
                "cell_timeout": self.pool.timeout,
                "max_attempts": self.pool.max_attempts,
            },
        }
        if self.faults is not None:
            doc["faults"] = self.faults.to_json()
        return doc

    # -- HTTP plumbing -------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # BlockingIOError, or a client that gave up
            return
        sock.setblocking(False)
        conn = _Connection(sock)
        self._selector.register(sock, selectors.EVENT_READ,
                                lambda: self._ready(conn))

    def _ready(self, conn: _Connection) -> None:
        if conn.sock.fileno() < 0:
            return  # closed earlier in this batch of events
        if conn.outgoing:
            self._flush(conn)
            return
        try:
            chunk = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:  # the client dropped the connection: EOF
            chunk = b""
        conn.received += chunk
        try:
            request = parse_request(conn.received, eof=not chunk)
        except BadRequest as exc:
            self._reply(conn, 400, {"error": str(exc)})
            return
        if request is not None:
            self._handle(conn, *request)

    def _handle(self, conn: _Connection, method: str, path: str,
                body: bytes) -> None:
        conn.route = _route_label(method, path)
        conn.started = time.monotonic()
        self._m_http_requests.labels(method=method, route=conn.route).inc()
        try:
            self._route(conn, method, path, body)
        except BadRequest as exc:
            self._m_http_errors.labels(route=conn.route).inc()
            self._reply(conn, 400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            self._m_http_errors.labels(route=conn.route).inc()
            self._reply(conn, 500, {"error": repr(exc)})

    def _route(self, conn: _Connection, method: str, path: str,
               body: bytes) -> None:
        parts = [part for part in path.partition("?")[0].split("/") if part]
        if method == "GET" and parts == ["healthz"]:
            self._reply(
                conn, 200,
                {"ok": True, "schema": SERVE_SCHEMA, "workers": self.workers,
                 "cache_dir": str(self.store.root)},
            )
        elif method == "GET" and parts == ["stats"]:
            self._reply(conn, 200, self.stats())
        elif method == "GET" and parts == ["metrics"]:
            self._reply(
                conn, 200, self.registry.exposition().encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif method == "POST" and parts == ["jobs"]:
            try:
                doc = json.loads(body or b"{}")
            except ValueError:
                raise BadRequest("body is not valid JSON") from None
            if not isinstance(doc, dict):
                raise BadRequest('body must be {"specs": [<spec>, ...]}')
            job = self.submit(doc.get("specs"))
            self._reply(conn, 200, self.job_status(job))
        elif method in ("GET", "DELETE") and len(parts) == 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                self._reply(conn, 404, {"error": f"no job {parts[1]!r}"})
                return
            if method == "DELETE":
                self.cancel_job(job)
            self._reply(conn, 200, self.job_status(job))
        elif method == "GET" and len(parts) == 2 and parts[0] == "results":
            entry = self.store.load_entry(parts[1])
            if entry is None:
                self._reply(
                    conn, 404, {"error": f"no result {parts[1]!r}"}
                )
                return
            self._reply(conn, 200, entry)
        else:
            self._reply(
                conn, 404, {"error": f"no route {method} /{'/'.join(parts)}"}
            )

    def _reply(self, conn: _Connection, status: int, doc: Any,
               content_type: str = "application/json") -> None:
        """Send ``doc`` (as JSON, or bytes as they are), then close."""
        payload = doc if isinstance(doc, bytes) else (
            json.dumps(doc, sort_keys=True) + "\n").encode()
        conn.outgoing += (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode() + payload
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Send what the socket takes; close once all is sent."""
        try:
            del conn.outgoing[:conn.sock.send(conn.outgoing)]
        except BlockingIOError:
            pass
        except OSError:  # the client went away mid-response
            conn.outgoing.clear()
        if conn.outgoing:  # wait until writable
            self._selector.modify(conn.sock, selectors.EVENT_WRITE,
                                  lambda: self._ready(conn))
        else:
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn.sock.fileno() < 0:
            return  # already closed
        self._selector.unregister(conn.sock)
        conn.sock.close()
        if conn.route:
            self._m_http_seconds.labels(route=conn.route).observe(
                time.monotonic() - conn.started
            )


def _line_end(data: bytes, start: int, eof: bool) -> Optional[int]:
    """Where the line at ``start`` ends: past its newline, or at EOF.

    None means the line is still incomplete.
    """
    newline = data.find(b"\n", start)
    if newline - start > MAX_LINE_BYTES or (
        newline < 0 and len(data) - start > MAX_LINE_BYTES
    ):
        raise BadRequest("request line or header too long")
    if newline >= 0:
        return newline + 1
    return len(data) if eof else None


def parse_request(data: bytes, eof: bool) -> Optional[Tuple[str, str, bytes]]:
    """Parse one HTTP/1.1 request from the bytes received so far.

    Returns ``(method, path, body)``, or None while more bytes could
    still change the answer; ``eof`` says none will come.  A malformed
    request, or one that EOF cut short, raises :class:`BadRequest`.
    ``data`` may be a ``bytearray``; bytes after the body are ignored.
    """
    end = _line_end(data, 0, eof)
    if end is None:
        return None
    request_line = bytes(data[:end])
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise BadRequest(f"malformed request line {request_line!r}") from None
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        start, end = end, _line_end(data, end, eof)
        if end is None:
            return None
        line = bytes(data[start:end])
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise BadRequest(f"too many headers (limit {MAX_HEADERS})")
    raw_length = headers.get("content-length", "0") or "0"
    # The digit cap keeps int() away from CPython's 4300-digit limit.
    if not raw_length.isdecimal() or len(raw_length) > MAX_LENGTH_DIGITS:
        raise BadRequest(f"bad Content-Length {raw_length[:40]!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise BadRequest(f"body too large ({length} bytes)")
    if len(data) - end < length:
        if not eof:
            return None
        raise BadRequest(f"body ended after {len(data) - end} of {length} bytes")
    return method.upper(), path, bytes(data[end:end + length])


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                500: "Internal Server Error"}


def _route_label(method: str, path: str) -> str:
    """Collapse a concrete path to its route pattern for metric labels.

    ``/jobs/job-3`` -> ``/jobs/{id}``; unknown shapes map to ``/other``
    so label cardinality stays bounded no matter what clients throw at
    the socket.
    """
    parts = [part for part in path.partition("?")[0].split("/") if part]
    if not parts:
        return "/"
    head = parts[0]
    if head in ("healthz", "stats", "metrics", "jobs") and len(parts) == 1:
        return f"/{head}"
    if head == "jobs" and len(parts) == 2:
        return "/jobs/{id}"
    if head == "results" and len(parts) == 2:
        return "/results/{key}"
    return "/other"


def run_server(
    store: ResultStore,
    workers: int = 1,
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    cell_timeout: Optional[float] = None,
    max_attempts: int = 3,
    faults: Optional[ServeFaultPlan] = None,
) -> None:
    """Serve until SIGINT (the CLI entry point; call it on the main thread).

    Ctrl-C only calls :meth:`ExperimentServer.close`, so the loop stops
    between two iterations, never inside a store write.
    """
    server = ExperimentServer(
        store,
        workers=workers,
        host=host,
        port=port,
        cell_timeout=cell_timeout,
        max_attempts=max_attempts,
        faults=faults,
    )
    previous = signal.signal(signal.SIGINT, lambda signum, frame: server.close())
    try:
        server.start()
        resilience = f"max_attempts={server.pool.max_attempts}"
        if cell_timeout is not None:
            resilience += f", cell_timeout={cell_timeout}s"
        if faults is not None:
            resilience += ", FAULT INJECTION ON"
        print(
            f"repro-sim serve: http://{server.host}:{server.port} "
            f"({server.workers} workers, cache {store.root}, {resilience})",
            flush=True,
        )
        server.serve_forever()
    finally:
        signal.signal(signal.SIGINT, previous)
