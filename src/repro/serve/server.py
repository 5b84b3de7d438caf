"""The ``repro-sim serve`` daemon: HTTP job queue over the result store.

Dependency-free by design (the simulator has no third-party runtime
deps, and its job server should not be the thing that changes that):
asyncio streams plus a minimal HTTP/1.1 request parser — enough for the
JSON API below, not a general web server.

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
                               cells) attach to the existing cell.
``GET    /jobs``               one summary row per live job (for dashboards)
``GET    /jobs/<id>``          job status: per-cell state + counts
``DELETE /jobs/<id>``          cancel: queued/backoff cells not shared
                               with another live job are abandoned;
                               running cells finish (their work is kept)
``GET    /jobs/<id>/stream``   newline-delimited JSON progress events,
                               one per cell completion, then a
                               ``job-done`` line.  Every event carries a
                               monotonically increasing ``seq``;
                               ``?after=<seq>`` replays from there, so a
                               client that lost its connection resumes
                               without missing or repeating events
``GET    /results/<key>``      the stored entry (spec, fingerprint, result)
``GET    /results/<key>/artifacts``  artifact listing for the cell
``POST   /artifacts/<key>/<name>``   upload one artifact (raw request body)
``GET    /artifacts/<key>/<name>``   download one artifact's raw bytes
``GET    /stats``              cache stats + scheduler/resilience counters
``GET    /metrics``            Prometheus text exposition (version 0.0.4)

Every request is counted per route in ``repro_http_requests_total`` and
timed into ``repro_http_request_seconds``; job/cell lifecycle, requeues,
timeouts, crashes and fault kills feed the ``repro_serve_*`` series (see
:mod:`repro.obs.metrics`).  ``POST /jobs`` accepts an optional ``"cid"``
correlation id which is stored per job/cell and bound around worker
execution, so structured logs thread client -> server -> worker.

Scheduling & resilience
-----------------------

Cold cells run on a pool of ``workers`` processes
(:class:`concurrent.futures.ProcessPoolExecutor`); an
:class:`asyncio.Semaphore` of the same width keeps the queue honest so a
cell is only marked ``running`` when it actually occupies a worker.
Every unique cell executes at most once no matter how many jobs
reference it — the dedupe map is keyed by the same content address the
store uses.

A cell whose worker dies (``BrokenProcessPool``) or whose attempt blows
the ``cell_timeout`` deadline is *requeued* — the poisoned executor is
torn down (stuck workers killed) and rebuilt exactly once per failure
wave (a generation counter under a lock), and the cell retries after
capped exponential backoff with deterministic jitter, up to
``max_attempts`` before failing terminally with the attempt count in its
:class:`~repro.experiments.parallel.RunError`.  ``job_timeout`` bounds a
whole job: on expiry its still-unstarted cells are cancelled.  A
:class:`~repro.serve.faults.ServeFaultPlan` makes all of these paths
chaos-testable with seeded worker kills, delayed completions, and
dropped stream frames.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import urllib.parse
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.experiments.parallel import (
    RunError,
    RunOutcome,
    RunSpec,
    _pool_context,
    backoff_delay,
    execute_spec,
    execute_spec_with_cid,
)
from repro.experiments.store import ResultStore, spec_from_json, spec_key
from repro.obs import metrics as obs_metrics
from repro.obs.log import log_event
from repro.serve.faults import ServeFaultPlan

SERVE_SCHEMA = "repro-serve/1"

#: Request body ceiling (a sweep of ~10k cells fits comfortably).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Header lines per request (each line is separately capped at 64 KiB).
MAX_HEADERS = 100


class BadRequest(ValueError):
    """Client error: reported as a 400 with the message as the reason."""


@dataclass
class Cell:
    """One unique sweep cell and its lifecycle on this server."""

    key: str
    spec: RunSpec
    status: str  # queued | running | backoff | done | cached | failed | cancelled
    done: asyncio.Event
    outcome: Optional[RunOutcome] = None
    #: How many submitted specs (across all jobs) resolved to this cell.
    refs: int = 0
    #: Execution attempts consumed (crash/timeout requeues increment it).
    attempts: int = 0
    #: Loop time the current attempt started (diagnostics).
    started: float = 0.0
    #: Last non-terminal failure or the cancellation reason.
    last_error: str = ""
    #: (exc_type, message) of the attempt that just failed, pre-requeue.
    failure: Tuple[str, str] = ("", "")
    #: Correlation id of the job that first created this cell.
    cid: str = ""

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
    """One submitted batch: an ordered list of cell keys + its event log."""

    id: str
    keys: List[str] = field(default_factory=list)
    cancelled: bool = False
    finished: bool = False
    #: Correlation id supplied by the submitting client ("" if none).
    cid: str = ""
    #: Append-only NDJSON event log; index == event["seq"], so any
    #: stream connection can replay from ``?after=<seq>``.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Replaced-and-set on every append; streams wait on the current one.
    changed: asyncio.Event = field(default_factory=asyncio.Event)


class ExperimentServer:
    """The asyncio job-queue daemon (one instance per process)."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        cell_timeout: Optional[float] = None,
        job_timeout: Optional[float] = None,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        faults: Optional[ServeFaultPlan] = None,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.workers = max(1, workers)
        self.host = host
        self.port = port
        self.cell_timeout = cell_timeout
        self.job_timeout = job_timeout
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.faults = faults
        self.cells: Dict[str, Cell] = {}
        self.jobs: Dict[str, Job] = {}
        self.submitted = 0
        self.deduped = 0
        self.requeues = 0
        self.timeouts = 0
        self.worker_crashes = 0
        self.executor_rebuilds = 0
        self.cancelled_jobs = 0
        self.fault_kills = 0
        self._job_counter = 0
        self._generation = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._rebuild_lock: Optional[asyncio.Lock] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set["asyncio.Task[Any]"] = set()
        self.registry = registry if registry is not None else obs_metrics.REGISTRY
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Declare the daemon's instrument set on ``self.registry``.

        Get-or-create semantics make this idempotent; gauges use scrape-time
        callbacks bound to this instance (the latest-constructed server on a
        shared registry wins, which is the one-daemon-per-process reality).
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
        self._m_jobs_submitted = reg.counter(
            "repro_serve_jobs_submitted_total", "Jobs accepted via POST /jobs.")
        self._m_jobs_finished = reg.counter(
            "repro_serve_jobs_finished_total", "Jobs whose event log reached job-done.")
        self._m_jobs_cancelled = reg.counter(
            "repro_serve_jobs_cancelled_total",
            "Jobs cancelled by DELETE or the job deadline.")
        self._m_specs_submitted = reg.counter(
            "repro_serve_specs_submitted_total", "Specs received across all jobs.")
        self._m_specs_deduped = reg.counter(
            "repro_serve_specs_deduped_total",
            "Specs that attached to an existing in-flight or cached cell.")
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
        self._m_requeues = reg.counter(
            "repro_serve_requeues_total", "Cells requeued after a crash or timeout.")
        self._m_timeouts = reg.counter(
            "repro_serve_timeouts_total", "Attempts that blew the per-cell deadline.")
        self._m_worker_crashes = reg.counter(
            "repro_serve_worker_crashes_total",
            "Attempts lost to a dead worker (BrokenProcessPool and kin).")
        self._m_executor_rebuilds = reg.counter(
            "repro_serve_executor_rebuilds_total",
            "Process-pool rebuilds after a failure wave.")
        self._m_fault_kills = reg.counter(
            "repro_serve_fault_kills_total",
            "Worker kills injected by the ServeFaultPlan.")
        self._m_dropped_frames = reg.counter(
            "repro_serve_dropped_frames_total",
            "Stream frames dropped by the ServeFaultPlan.")

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
            "repro_serve_jobs_open", "Jobs whose event log has not reached job-done.",
        ).set_function(lambda: sum(1 for j in self.jobs.values() if not j.finished))
        reg.gauge(
            "repro_serve_event_log_depth",
            "Total buffered stream events across all job logs.",
        ).set_function(lambda: sum(len(j.events) for j in self.jobs.values()))
        reg.gauge(
            "repro_serve_executor_generation",
            "Process-pool generation (increments on every rebuild).",
        ).set_function(lambda: self._generation)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and the worker pool.

        ``port=0`` picks an ephemeral port; ``self.port`` is updated to
        the bound one either way.
        """
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_pool_context()
        )
        self._slots = asyncio.Semaphore(self.workers)
        self._rebuild_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._executor is not None:
            processes = list((getattr(self._executor, "_processes", None) or {}).values())
            self._executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                if process.is_alive():
                    process.kill()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- scheduling ----------------------------------------------------

    def submit(self, spec_docs: List[Dict[str, Any]], cid: str = "") -> Job:
        """Register a batch; returns the job with one cell per spec."""
        if not isinstance(spec_docs, list) or not spec_docs:
            raise BadRequest('body must be {"specs": [<spec>, ...]}')
        self._job_counter += 1
        job = Job(id=f"job-{self._job_counter}", cid=str(cid or ""))
        self._m_jobs_submitted.inc()
        for doc in spec_docs:
            try:
                spec = spec_from_json(doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise BadRequest(f"bad spec {doc!r}: {exc}") from None
            self.submitted += 1
            self._m_specs_submitted.inc()
            key = spec_key(spec)
            cell = self.cells.get(key)
            if cell is None:
                cell = Cell(key=key, spec=spec, status="queued",
                            done=asyncio.Event(), cid=job.cid)
                self.cells[key] = cell
                cached = self.store.fetch(spec)
                if cached is not None:
                    cell.status = "cached"
                    cell.outcome = cached
                    cell.done.set()
                    self._m_cells_terminal.labels(status="cached").inc()
                else:
                    self._spawn(self._run_cell(cell))
            elif cell.status == "cancelled":
                # Revive: a new job wants a cell an earlier job abandoned.
                cell.status = "queued"
                cell.done = asyncio.Event()
                cell.outcome = None
                cell.attempts = 0
                cell.last_error = ""
                cell.cid = job.cid
                self._spawn(self._run_cell(cell))
            else:
                # The dedupe path: an identical cell is already cached,
                # queued, or running on behalf of another submission.
                self.deduped += 1
                self._m_specs_deduped.inc()
            cell.refs += 1
            job.keys.append(key)
        self.jobs[job.id] = job
        log_event("serve", "job_submitted", job=job.id, cid=job.cid or None,
                  specs=len(job.keys))
        self._spawn(self._record_job(job))
        return job

    async def _run_cell(self, cell: Cell) -> None:
        """Drive one cell to a terminal state, requeueing on faults."""
        assert self._slots is not None
        loop = asyncio.get_running_loop()
        while True:
            if cell.status == "cancelled":
                return
            async with self._slots:
                if cell.status == "cancelled":
                    return
                cell.attempts += 1
                cell.status = "running"
                cell.started = loop.time()
                requeue = await self._attempt(cell, loop)
            if not requeue:
                return
            cell.status = "backoff"
            self.requeues += 1
            self._m_requeues.inc()
            log_event("serve", "cell_requeued", level="warning", cell=cell.key,
                      cid=cell.cid or None, attempts=cell.attempts,
                      error=cell.last_error)
            await asyncio.sleep(backoff_delay(
                cell.attempts,
                base=self.backoff_base,
                cap=self.backoff_cap,
                key=cell.key,
            ))

    async def _attempt(self, cell: Cell, loop) -> bool:
        """One execution attempt; returns True when the cell must requeue."""
        generation = self._generation
        kill_task = None
        self._m_cell_attempts.inc()
        if self.faults is not None and self.faults.should_kill(
            cell.key, cell.attempts
        ):
            self.fault_kills += 1
            self._m_fault_kills.inc()
            kill_task = loop.create_task(self._fault_kill(generation))
        try:
            future = loop.run_in_executor(
                self._executor, execute_spec_with_cid, cell.spec, cell.cid
            )
            if self.cell_timeout is not None:
                outcome = await asyncio.wait_for(future, self.cell_timeout)
            else:
                outcome = await future
        except asyncio.TimeoutError:
            self.timeouts += 1
            self._m_timeouts.inc()
            self._m_cell_seconds.observe(loop.time() - cell.started)
            cell.failure = (
                "CellTimeout",
                f"exceeded the {self.cell_timeout}s per-cell deadline",
            )
            await self._rebuild_executor(generation)
            return self._requeue_or_fail(cell)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # BrokenProcessPool, pickling failure, ...
            self.worker_crashes += 1
            self._m_worker_crashes.inc()
            self._m_cell_seconds.observe(loop.time() - cell.started)
            cell.failure = (type(exc).__name__, str(exc) or "worker process died")
            await self._rebuild_executor(generation)
            return self._requeue_or_fail(cell)
        finally:
            if kill_task is not None:
                kill_task.cancel()
        self._m_cell_seconds.observe(loop.time() - cell.started)
        if self.faults is not None:
            delay = self.faults.completion_delay(cell.key)
            if delay:
                await asyncio.sleep(delay)
        cell.outcome = outcome
        if outcome.ok:
            self.store.put(outcome)
            cell.status = "done"
        else:
            cell.status = "failed"
        self._m_cells_terminal.labels(status=cell.status).inc()
        log_event("serve", "cell_done" if outcome.ok else "cell_failed",
                  level="info" if outcome.ok else "error",
                  cell=cell.key, cid=cell.cid or None, attempts=cell.attempts,
                  status=cell.status,
                  error=str(outcome.error) if outcome.error else None)
        cell.done.set()
        return False

    def _requeue_or_fail(self, cell: Cell) -> bool:
        """Schedule a retry, or fail the cell once its attempts are spent."""
        exc_type, message = cell.failure
        cell.last_error = f"{exc_type}: {message}"
        if cell.attempts < self.max_attempts:
            return True
        cell.outcome = RunOutcome(spec=cell.spec, error=RunError(
            exc_type=exc_type,
            message=f"{message} (gave up after {cell.attempts} attempt(s))",
            traceback="",
            workload=cell.spec.workload,
            policy=cell.spec.policy.name,
            seed=cell.spec.seed,
            attempts=cell.attempts,
        ))
        cell.status = "failed"
        self._m_cells_terminal.labels(status="failed").inc()
        log_event("serve", "cell_failed", level="error", cell=cell.key,
                  cid=cell.cid or None, attempts=cell.attempts,
                  error=cell.last_error)
        cell.done.set()
        return False

    async def _rebuild_executor(self, generation: int) -> None:
        """Replace the (possibly poisoned) pool, once per failure wave.

        Several cells can observe the same crash; the generation counter
        under the lock makes the first one rebuild and the rest reuse the
        fresh pool.  Workers of the old pool that are still alive (a
        stuck cell after a timeout) are killed so their CPU comes back.
        """
        assert self._rebuild_lock is not None
        async with self._rebuild_lock:
            if generation != self._generation:
                return
            self._generation += 1
            self.executor_rebuilds += 1
            self._m_executor_rebuilds.inc()
            log_event("serve", "executor_rebuilt", level="warning",
                      generation=self._generation)
            old, self._executor = self._executor, ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_pool_context()
            )
            if old is not None:
                processes = list((getattr(old, "_processes", None) or {}).values())
                old.shutdown(wait=False, cancel_futures=True)
                for process in processes:
                    if process.is_alive():
                        process.kill()

    async def _fault_kill(self, generation: int) -> None:
        """ServeFaultPlan hook: kill one live worker of this generation."""
        assert self.faults is not None
        await asyncio.sleep(self.faults.kill_delay)
        # The pool spawns processes lazily on first submit; poll briefly
        # so the kill lands even when it races the spawn.
        for _ in range(50):
            if generation != self._generation:
                return
            processes = [
                process
                for process in (getattr(self._executor, "_processes", None) or {}).values()
                if process.is_alive()
            ]
            if processes:
                processes[0].kill()
                return
            await asyncio.sleep(0.01)

    # -- job tracking --------------------------------------------------

    async def _record_job(self, job: Job) -> None:
        """Build the job's event log as cells finish; enforce job_timeout."""
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + self.job_timeout if self.job_timeout is not None else None
        )
        pending = list(dict.fromkeys(job.keys))
        try:
            while pending:
                ready = [key for key in pending if self.cells[key].done.is_set()]
                if ready:
                    for key in ready:
                        pending.remove(key)
                        self._append_event(job, self.cells[key])
                    continue
                waiters = {
                    asyncio.ensure_future(self.cells[key].done.wait()): key
                    for key in pending
                }
                timeout = (
                    None if deadline is None else max(0.0, deadline - loop.time())
                )
                finished, unfinished = await asyncio.wait(
                    waiters, timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for waiter in unfinished:
                    waiter.cancel()
                if not finished and deadline is not None and loop.time() >= deadline:
                    self.cancel_job(
                        job,
                        reason=f"job exceeded the {self.job_timeout}s deadline",
                    )
                    # Cancelled cells resolve instantly; running ones are
                    # allowed to finish (their work is kept) — so from
                    # here, just drain without a deadline.
                    deadline = None
        finally:
            job.finished = True
            job.events.append({
                "event": "job-done",
                "job": job.id,
                "total": len(job.keys),
                "seq": len(job.events),
                "cancelled": job.cancelled,
            })
            self._m_jobs_finished.inc()
            log_event("serve", "job_finished", job=job.id, cid=job.cid or None,
                      total=len(job.keys), cancelled=job.cancelled)
            self._notify(job)

    def _append_event(self, job: Job, cell: Cell) -> None:
        event = dict(cell.to_json())
        event.update({
            "event": "cell",
            "seq": len(job.events),
            "finished": len(job.events) + 1,
            "total": len(job.keys),
        })
        job.events.append(event)
        self._notify(job)

    @staticmethod
    def _notify(job: Job) -> None:
        waiter, job.changed = job.changed, asyncio.Event()
        waiter.set()

    def cancel_job(self, job: Job, reason: str = "cancelled by client") -> None:
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
        self._m_jobs_cancelled.inc()
        log_event("serve", "job_cancelled", level="warning", job=job.id,
                  cid=job.cid or None, reason=reason)
        shared: Set[str] = set()
        for other in self.jobs.values():
            if other.id != job.id and not other.cancelled:
                shared.update(other.keys)
        for key in dict.fromkeys(job.keys):
            cell = self.cells[key]
            if key in shared or cell.status not in ("queued", "backoff"):
                continue
            cell.status = "cancelled"
            cell.last_error = reason
            self._m_cells_terminal.labels(status="cancelled").inc()
            cell.done.set()

    # -- status documents ----------------------------------------------

    def job_status(self, job: Job) -> Dict[str, Any]:
        cells = [self.cells[key].to_json() for key in job.keys]
        counts: Dict[str, int] = {}
        for cell in cells:
            counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        finished = sum(
            counts.get(status, 0)
            for status in ("done", "cached", "failed", "cancelled")
        )
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
            "scheduler": {
                "requeues": self.requeues,
                "timeouts": self.timeouts,
                "worker_crashes": self.worker_crashes,
                "executor_rebuilds": self.executor_rebuilds,
                "cancelled_jobs": self.cancelled_jobs,
                "fault_kills": self.fault_kills,
            },
            "resilience": {
                "cell_timeout": self.cell_timeout,
                "job_timeout": self.job_timeout,
                "max_attempts": self.max_attempts,
            },
        }
        if self.faults is not None:
            doc["faults"] = self.faults.to_json()
        return doc

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            try:
                method, path, body = await _read_request(reader)
            except BadRequest as exc:
                with contextlib.suppress(ConnectionError, OSError):
                    await _respond_json(writer, 400, {"error": str(exc)})
                return
            route = _route_label(method, path)
            self._m_http_requests.labels(method=method, route=route).inc()
            started = loop.time()
            try:
                await self._route(method, path, body, writer)
            except BadRequest as exc:
                self._m_http_errors.labels(route=route).inc()
                await _respond_json(writer, 400, {"error": str(exc)})
            except (ConnectionError, OSError):
                pass  # client went away mid-response
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                self._m_http_errors.labels(route=route).inc()
                try:
                    await _respond_json(writer, 500, {"error": repr(exc)})
                except (ConnectionError, OSError):
                    pass
            finally:
                self._m_http_seconds.labels(route=route).observe(
                    loop.time() - started
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        raw_path, _, query_string = path.partition("?")
        parts = [part for part in raw_path.split("/") if part]
        query = urllib.parse.parse_qs(query_string)
        if method == "GET" and parts == ["healthz"]:
            await _respond_json(
                writer, 200,
                {"ok": True, "schema": SERVE_SCHEMA, "workers": self.workers,
                 "cache_dir": str(self.store.root)},
            )
        elif method == "GET" and parts == ["stats"]:
            await _respond_json(writer, 200, self.stats())
        elif method == "GET" and parts == ["metrics"]:
            await _respond_bytes(
                writer, 200, self.registry.exposition().encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif method == "GET" and parts == ["jobs"]:
            jobs = []
            for job in self.jobs.values():
                status = self.job_status(job)
                status.pop("cells", None)
                status["cid"] = job.cid
                jobs.append(status)
            await _respond_json(
                writer, 200, {"schema": SERVE_SCHEMA, "jobs": jobs}
            )
        elif method == "POST" and parts == ["jobs"]:
            try:
                doc = json.loads(body or b"{}")
            except ValueError:
                raise BadRequest("body is not valid JSON") from None
            job = self.submit(doc.get("specs"), cid=doc.get("cid") or "")
            await _respond_json(writer, 200, self.job_status(job))
        elif method in ("GET", "DELETE") and len(parts) == 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                await _respond_json(writer, 404, {"error": f"no job {parts[1]!r}"})
                return
            if method == "DELETE":
                self.cancel_job(job)
            await _respond_json(writer, 200, self.job_status(job))
        elif (
            method == "GET"
            and len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "stream"
        ):
            job = self.jobs.get(parts[1])
            if job is None:
                await _respond_json(writer, 404, {"error": f"no job {parts[1]!r}"})
                return
            try:
                after = int(query.get("after", ["-1"])[0])
            except ValueError:
                raise BadRequest(
                    f"after must be an integer, got {query['after'][0]!r}"
                ) from None
            await self._stream_job(job, writer, after)
        elif method == "GET" and len(parts) == 2 and parts[0] == "results":
            entry = self.store.load_entry(parts[1])
            if entry is None:
                await _respond_json(
                    writer, 404, {"error": f"no result {parts[1]!r}"}
                )
                return
            await _respond_json(writer, 200, entry)
        elif (
            method == "GET"
            and len(parts) == 3
            and parts[0] == "results"
            and parts[2] == "artifacts"
        ):
            await _respond_json(
                writer, 200,
                {"key": parts[1], "artifacts": self.store.list_artifacts(parts[1])},
            )
        elif (
            method in ("POST", "PUT")
            and len(parts) == 3
            and parts[0] == "artifacts"
        ):
            key, name = parts[1], urllib.parse.unquote(parts[2])
            try:
                path = self.store.put_artifact(key, name, body)
            except ValueError as exc:
                raise BadRequest(str(exc)) from None
            log_event("serve", "artifact_stored", key=key, name=name,
                      bytes=len(body))
            await _respond_json(
                writer, 200,
                {"key": key, "name": path.name, "bytes": len(body)},
            )
        elif method == "GET" and len(parts) == 3 and parts[0] == "artifacts":
            key, name = parts[1], urllib.parse.unquote(parts[2])
            content = self.store.get_artifact(key, name)
            if content is None:
                await _respond_json(
                    writer, 404,
                    {"error": f"no artifact {name!r} for result {key!r}"},
                )
                return
            await _respond_bytes(
                writer, 200, content, content_type="application/octet-stream"
            )
        else:
            await _respond_json(
                writer, 404, {"error": f"no route {method} /{'/'.join(parts)}"}
            )

    async def _stream_job(
        self, job: Job, writer: asyncio.StreamWriter, after: int = -1
    ) -> None:
        """NDJSON progress replayed from ``after``: the job's event log.

        Events are served from the job's append-only log, so any number
        of connections — including one resuming after a drop — see the
        same sequence.  The ``ServeFaultPlan`` drop-frame hook aborts the
        connection *instead of* sending a frame, exercising exactly the
        client's resume path.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        index = max(0, after + 1)
        while True:
            if index < len(job.events):
                event = job.events[index]
                index += 1
                if self.faults is not None and self.faults.should_drop_frame(
                    job.id, event["seq"]
                ):
                    self._m_dropped_frames.inc()
                    return  # dropped: the client reconnects with ?after=
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
                await writer.drain()
                if event.get("event") == "job-done":
                    return
                continue
            waiter = job.changed
            if index < len(job.events):
                continue
            await waiter.wait()


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except (ConnectionError, OSError):
        raise BadRequest("connection dropped") from None
    except ValueError:  # no newline within the stream's 64 KiB limit
        raise BadRequest("request line or header too long") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    """Parse one HTTP/1.1 request: (method, path, body).

    Any malformed or truncated request raises :class:`BadRequest`.
    """
    request_line = await _read_line(reader)
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise BadRequest(f"malformed request line {request_line!r}") from None
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise BadRequest(f"too many headers (limit {MAX_HEADERS})")
    raw_length = headers.get("content-length", "0") or "0"
    if not raw_length.isdecimal():
        raise BadRequest(f"bad Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise BadRequest(f"body too large ({length} bytes)")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise BadRequest(
            f"body ended after {len(exc.partial)} of {length} bytes"
        ) from None
    except (ConnectionError, OSError):
        raise BadRequest("connection dropped") from None
    return method.upper(), path, body


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                500: "Internal Server Error"}


def _route_label(method: str, path: str) -> str:
    """Collapse a concrete path to its route pattern for metric labels.

    ``/jobs/job-3/stream`` -> ``/jobs/{id}/stream``; unknown shapes map to
    ``/other`` so label cardinality stays bounded no matter what clients
    throw at the socket.
    """
    raw_path = path.partition("?")[0]
    parts = [part for part in raw_path.split("/") if part]
    if not parts:
        return "/"
    head = parts[0]
    if head in ("healthz", "stats", "metrics") and len(parts) == 1:
        return f"/{head}"
    if head == "jobs":
        if len(parts) == 1:
            return "/jobs"
        if len(parts) == 2:
            return "/jobs/{id}"
        if len(parts) == 3 and parts[2] == "stream":
            return "/jobs/{id}/stream"
    if head == "results":
        if len(parts) == 2:
            return "/results/{key}"
        if len(parts) == 3 and parts[2] == "artifacts":
            return "/results/{key}/artifacts"
    if head == "artifacts" and len(parts) == 3:
        return "/artifacts/{key}/{name}"
    return "/other"


async def _respond_bytes(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str = "application/octet-stream",
) -> None:
    writer.write(
        (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
    )
    writer.write(payload)
    await writer.drain()


async def _respond_json(
    writer: asyncio.StreamWriter, status: int, doc: Dict[str, Any]
) -> None:
    payload = (json.dumps(doc, sort_keys=True) + "\n").encode()
    await _respond_bytes(writer, status, payload, content_type="application/json")


async def run_server(
    store: ResultStore,
    workers: int = 1,
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    cell_timeout: Optional[float] = None,
    job_timeout: Optional[float] = None,
    max_attempts: int = 3,
    faults: Optional[ServeFaultPlan] = None,
) -> None:
    """Start a server and block until cancelled (the CLI entry point)."""
    server = ExperimentServer(
        store,
        workers=workers,
        host=host,
        port=port,
        cell_timeout=cell_timeout,
        job_timeout=job_timeout,
        max_attempts=max_attempts,
        faults=faults,
    )
    await server.start()
    resilience = f"max_attempts={server.max_attempts}"
    if cell_timeout is not None:
        resilience += f", cell_timeout={cell_timeout}s"
    if job_timeout is not None:
        resilience += f", job_timeout={job_timeout}s"
    if faults is not None:
        resilience += ", FAULT INJECTION ON"
    print(
        f"repro-sim serve: http://{server.host}:{server.port} "
        f"({server.workers} workers, cache {store.root}, {resilience})",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.close()
