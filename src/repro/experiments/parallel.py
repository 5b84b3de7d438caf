"""Parallel experiment execution: fan independent runs out over processes.

The paper's evaluation sweeps every workload under both protocols across
many machine configurations (Figures 5-6, Tables 3-4).  Each simulation
is an independent, deterministic, pure-Python event loop, so the natural
unit of parallelism is one whole run: this module describes a run as a
picklable :class:`RunSpec`, executes batches of them with
:func:`run_many`, and returns :class:`RunOutcome` objects in the exact
order the specs were given regardless of completion order.

Design points:

* **Processes, not threads.**  A run is CPU-bound Python, so
  :class:`CellPool` forks its own workers (``os.fork``) and talks to
  each over a request pipe and a reply pipe, one length-prefixed pickle
  per message.  A sweep loads neither :mod:`multiprocessing` nor
  :mod:`concurrent.futures` and starts no thread.
* **Deterministic ordering.**  Results are re-indexed by submission
  order, so ``run_many(specs, workers=8)`` is byte-identical to
  ``run_many(specs, workers=1)``.
* **Per-run error capture.**  A failing run produces a structured
  :class:`RunError` inside its outcome instead of killing the pool; the
  other runs complete normally.
* **One failure model.**  :class:`CellPool` owns the worker processes
  and classifies every attempt, and :class:`CellScheduler` steps cells
  through it, for this module's :func:`run_many` and for the
  ``repro-sim serve`` daemon alike.  A worker that dies (OOM kill,
  segfault, ``os._exit``) or an attempt that overruns
  ``run_many(..., timeout=...)`` costs the cell one attempt: that
  worker alone is killed and replaced, and the cell requeued after a
  seeded backoff, up to ``max_attempts``, after which it resolves to a
  ``WorkerCrash`` or ``CellTimeout`` :class:`RunError` instead of
  hanging or crashing the sweep.
* **A pool per call.**  Every cold cell runs in a worker, at any
  width: each :func:`run_many` call builds its own :class:`CellPool`
  and closes it before it returns, so its workers fork from the
  process as the call finds it and none outlives the call.  Sweeps
  need ``os.fork``.
* **Result-cache consultation.**  ``run_many(..., store=...)`` serves
  previously computed cells from a
  :class:`~repro.experiments.store.ResultStore` and populates it with
  fresh ones; cached outcomes are fingerprint-verified and byte-identical
  to recomputation.  Each fresh cell is stored as it finishes, so
  rerunning an interrupted sweep on the same store recomputes only the
  cells it never finished.
* **Remote execution.**  ``run_many(..., backend="serve")`` ships the
  cold cells to a ``repro-sim serve`` daemon
  (:class:`~repro.serve.client.ServeClient`) and falls back to local
  execution when the daemon is unreachable.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.consistency.models import ConsistencyModel, SEQUENTIAL_CONSISTENCY
from repro.core.policy import ProtocolPolicy
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.obs import metrics as obs_metrics
from repro.workloads import check_preset

#: Tags marking frozen containers inside ``RunSpec.overrides`` so the
#: original value shape survives the hashable round trip.  (A workload
#: override whose *literal value* collides with a tag tuple would thaw
#: wrongly; no simulator knob looks like that.)
_DICT_TAG = "__frozen-dict__"
_SET_TAG = "__frozen-set__"

#: ``RunError.exc_type`` for a cell that exceeded its wall-clock deadline.
CELL_TIMEOUT = "CellTimeout"
#: ``RunError.exc_type`` for a cell lost to more worker crashes than
#: ``max_attempts`` allows.
WORKER_CRASH = "WorkerCrash"

#: Environment override for the default ``backend="serve"`` daemon URL.
SERVE_URL_ENV = "REPRO_SIM_SERVE"
_DEFAULT_SERVE_URL = "http://127.0.0.1:8787"

#: The failure tallies every :class:`CellPool` keeps.
_POOL_COUNTS = ("requeues", "timeouts", "worker_crashes")

#: One tally for every run_many pool in this process (each call builds
#: its own), summed over calls.
_RUNMANY_COUNTS = dict.fromkeys(_POOL_COUNTS, 0)


def _bind_runmany_retries() -> None:
    """Render the run_many requeue tally as ``repro_runmany_retries_total``
    on the global registry, where ``bench/`` reads it."""
    obs_metrics.counter(
        "repro_runmany_retries_total",
        "Cells requeued after a lost worker or a deadline overrun.",
    ).set_function(lambda: _RUNMANY_COUNTS["requeues"])


def backoff_delay(
    attempt: int, *, base: float = 0.05, cap: float = 2.0, key: str = ""
) -> float:
    """Capped exponential backoff with deterministic jitter.

    The delay for attempt ``n`` is ``min(cap, base * 2**(n-1))`` scaled
    by a jitter factor in [0.5, 1.0) drawn from a stream seeded by
    ``(key, attempt)`` — so retries of different cells desynchronize,
    but the same (key, attempt) always waits the same amount, keeping
    retry schedules reproducible.
    """
    if attempt <= 0:
        return 0.0
    jitter = random.Random(f"{key}:{attempt}").uniform(0.5, 1.0)
    return min(cap, base * (2 ** (attempt - 1))) * jitter


def freeze_value(value: Any) -> Any:
    """Recursively convert ``value`` into an equivalent hashable form.

    Dicts become ``(_DICT_TAG, ((key, frozen_value), ...))`` with keys
    sorted, so two dicts that differ only in insertion order freeze — and
    therefore hash and cache-key — identically.  Lists and tuples become
    tuples of frozen elements; sets become tag-marked sorted tuples.
    """
    if isinstance(value, dict):
        return (
            _DICT_TAG,
            tuple((key, freeze_value(value[key])) for key in sorted(value)),
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return (_SET_TAG, tuple(sorted(freeze_value(item) for item in value)))
    return value


def thaw_value(value: Any) -> Any:
    """Invert :func:`freeze_value` far enough to call a workload with.

    Dicts and sets are rebuilt exactly; frozen lists come back as tuples
    (every workload knob treats the two interchangeably).
    """
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _DICT_TAG and isinstance(value[1], tuple):
            return {key: thaw_value(item) for key, item in value[1]}
        if len(value) == 2 and value[0] == _SET_TAG and isinstance(value[1], tuple):
            return {thaw_value(item) for item in value[1]}
        return tuple(thaw_value(item) for item in value)
    return value


@dataclass(frozen=True)
class RunSpec:
    """One independent (workload, policy, consistency, config, seed) run.

    ``overrides`` holds workload parameter overrides as a sorted tuple of
    pairs so the spec stays hashable and picklable; build specs with
    :meth:`make` to pass them as keywords.  :meth:`make` recursively
    freezes dict/list/set override values (see :func:`freeze_value`), so
    ``hash(spec)`` works — and is insertion-order independent — for any
    JSON-shaped override.
    """

    workload: str
    policy: ProtocolPolicy
    preset: str = "default"
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY
    config: Optional[MachineConfig] = None
    check_coherence: bool = True
    seed: int = 42
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Free-form label for callers to map outcomes back to their sweep
    #: coordinates (e.g. "mp3d/AD" or "4x4/small-cache").
    tag: str = ""

    @staticmethod
    def make(
        workload: str,
        policy: ProtocolPolicy,
        *,
        preset: str = "default",
        consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY,
        config: Optional[MachineConfig] = None,
        check_coherence: bool = True,
        seed: int = 42,
        tag: str = "",
        **workload_overrides,
    ) -> "RunSpec":
        check_preset(preset)
        return RunSpec(
            workload=workload,
            policy=policy,
            preset=preset,
            consistency=consistency,
            config=config,
            check_coherence=check_coherence,
            seed=seed,
            overrides=tuple(
                sorted((key, freeze_value(value))
                       for key, value in workload_overrides.items())
            ),
            tag=tag,
        )

    @property
    def label(self) -> str:
        return self.tag or f"{self.workload}/{self.policy.name}"

    def override_kwargs(self) -> Dict[str, Any]:
        """The workload overrides thawed back to call-ready values."""
        return {key: thaw_value(value) for key, value in self.overrides}


@dataclass(frozen=True)
class RunError:
    """A structured record of one failed run.

    Carries everything needed to triage a failure without re-running it:
    the exception type and message, the worker-side traceback, the sweep
    coordinates (workload/policy/seed) of the failing spec, how many
    execution attempts the cell consumed (crash-recovery retries), and —
    when the exception was a :class:`~repro.sim.engine.SimulationError`
    with an attached :class:`~repro.faults.diagnostics.DiagnosticDump` —
    the dump itself as a JSON-compatible dict (dataclass fields must
    pickle cleanly across the process boundary, hence the dict form;
    rebuild with :meth:`diagnostic_dump`).
    """

    exc_type: str
    message: str
    traceback: str
    workload: str = ""
    policy: str = ""
    seed: int = 0
    dump: Optional[dict] = None
    attempts: int = 1

    def __str__(self) -> str:
        where = f" [{self.workload}/{self.policy} seed={self.seed}]" if self.workload else ""
        return f"{self.exc_type}{where}: {self.message}"

    def diagnostic_dump(self):
        """The attached DiagnosticDump, rebuilt from its dict form (or None)."""
        if self.dump is None:
            return None
        from repro.faults.diagnostics import DiagnosticDump

        return DiagnosticDump.from_json(self.dump)


@dataclass
class RunOutcome:
    """Result (or captured failure) of executing one :class:`RunSpec`."""

    spec: RunSpec
    result: Optional[RunResult] = None
    error: Optional[RunError] = None
    #: Host wall-clock seconds spent inside the run.
    wall_time: float = 0.0
    #: True when the result was served from a ResultStore (or a remote
    #: daemon's store) instead of being simulated in this call
    #: (``wall_time`` is then the fetch cost, not the simulation cost).
    cached: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> RunResult:
        """The RunResult, or re-raise the captured failure."""
        if self.error is not None:
            raise RuntimeError(
                f"run {self.spec.label!r} failed: {self.error}\n{self.error.traceback}"
            )
        assert self.result is not None
        return self.result


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Execute one spec in this process, capturing any failure."""
    # Imported here to avoid a module-level import cycle with runner.py,
    # and so the store and the serve daemon never load the simulator.
    from repro.experiments.runner import run_workload

    start = time.perf_counter()
    try:
        result = run_workload(
            spec.workload,
            spec.policy,
            preset=spec.preset,
            consistency=spec.consistency,
            config=spec.config,
            check_coherence=spec.check_coherence,
            seed=spec.seed,
            **spec.override_kwargs(),
        )
    except Exception as exc:  # noqa: BLE001 - the pool must survive any run
        dump = getattr(exc, "dump", None)
        return RunOutcome(
            spec=spec,
            error=RunError(
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                workload=spec.workload,
                policy=spec.policy.name,
                seed=spec.seed,
                dump=dump.to_json() if dump is not None else None,
            ),
            wall_time=time.perf_counter() - start,
        )
    return RunOutcome(spec=spec, result=result, wall_time=time.perf_counter() - start)


def default_workers() -> int:
    """A sensible worker count for this host (>= 1)."""
    return max(1, os.cpu_count() or 1)


def _send(fd: int, obj: Any) -> None:
    """Write ``obj`` to ``fd`` pickled, after its length in 8 little-endian
    bytes."""
    import pickle

    data = pickle.dumps(obj)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _work(requests: int, replies: int, inherited: List[int]) -> None:
    """A forked worker's loop: run each requested :class:`RunSpec` and
    reply with its :class:`RunOutcome`.

    It first closes the pool's ``inherited`` pipe ends and ignores
    SIGINT, since Ctrl-C is the parent's to handle.  It never returns: it
    leaves by ``os._exit``, with status 0 when its pool closes the
    request pipe and 1 on any failure, which the pool sees as a lost
    worker.
    """
    try:
        import pickle
        import signal

        for fd in inherited:
            os.close(fd)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        reader = open(requests, "rb")  # its read(n) waits for n bytes or EOF
        while True:
            size = reader.read(8)
            if len(size) < 8:
                os._exit(0)
            spec = pickle.loads(reader.read(int.from_bytes(size, "little")))
            _send(replies, execute_spec(spec))
    finally:
        os._exit(1)


class _Worker:
    """One forked worker process and the parent's ends of its two pipes.

    ``fileno()`` is the reply pipe, so ``select`` or a selector can wait
    on a worker.
    """

    def __init__(self, siblings: List["_Worker"]) -> None:
        requests, self.requests = os.pipe()
        self.replies, replies = os.pipe()
        for stream in (sys.stdout, sys.stderr):  # or the child repeats it
            with contextlib.suppress(AttributeError, ValueError, OSError):
                stream.flush()
        self.pid = os.fork()
        if self.pid == 0:
            _work(requests, replies, [
                fd for worker in (self, *siblings)
                for fd in (worker.requests, worker.replies)
            ])
        os.close(requests)
        os.close(replies)
        os.set_blocking(self.replies, False)
        #: The attempt's reply as read so far.
        self.reply = bytearray()
        #: The reply pipe hit EOF or the request could not be written.
        self.lost = False

    def fileno(self) -> int:
        return self.replies

    def send(self, request: Any) -> None:
        """Write one request; if the worker is gone, it is lost."""
        try:
            _send(self.requests, request)
        except OSError:  # EPIPE: the worker died while it idled
            self.lost = True

    def _complete(self) -> bool:
        reply = self.reply
        return len(reply) >= 8 and len(reply) - 8 >= int.from_bytes(reply[:8], "little")

    def poll(self) -> bool:
        """Read what the reply pipe holds; whether the attempt is over
        (its reply complete, or the worker lost)."""
        while not self.lost and not self._complete():
            try:
                chunk = os.read(self.replies, 1 << 16)
            except BlockingIOError:
                return False
            self.lost = not chunk
            self.reply += chunk
        return True

    def take(self) -> Optional[RunOutcome]:
        """The attempt's outcome, or None if its reply never completed."""
        import pickle

        complete, reply, self.reply = self._complete(), self.reply, bytearray()
        return pickle.loads(memoryview(reply)[8:]) if complete else None

    def kill(self) -> None:
        """SIGKILL the worker (nothing once its pool has reaped it)."""
        import signal

        if self.pid:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)

    def close(self) -> None:
        """Kill and reap the worker and close both pipes, once."""
        if self.pid:
            self.kill()
            with contextlib.suppress(ChildProcessError):
                os.waitpid(self.pid, 0)
            self.pid = 0
            os.close(self.requests)
            os.close(self.replies)
            self.requests = self.replies = -1
            self.lost = True


@dataclass(eq=False)
class Cell:
    """One cell's attempt record, as :class:`CellPool` drives it.

    ``status`` goes queued -> running -> (backoff -> running)* -> done |
    failed, and ``outcome`` is set once the cell is terminal.  The last
    three fields describe the attempt in flight, or the last one.
    """

    spec: RunSpec
    #: Seeds the cell's backoff jitter.
    key: str = ""
    status: str = "queued"
    #: Attempts started, and how many of them lost their worker.
    attempts: int = 0
    crashes: int = 0
    outcome: Optional[RunOutcome] = None
    #: Why the last attempt failed, or why the cell was cancelled.
    last_error: str = ""
    #: The worker the attempt went to.
    worker: Optional[_Worker] = None
    #: ``time.monotonic()`` at submission, and the deadline it started.
    started: float = 0.0
    deadline: Optional[float] = None


class CellPool:
    """Forked workers plus the one failure model of every cell scheduler.

    :class:`CellScheduler` drives it for :func:`run_many` and the serve
    daemon alike: :meth:`start` sends a cell's next attempt to an idle
    worker, forking one when none is idle, and once the attempt has
    :meth:`ended`, :meth:`settle` classifies it.  The pool never waits:
    its caller waits on the running attempts' workers (``cell.worker``
    has a ``fileno()``), and the scheduler keeps at most ``workers``
    attempts in flight, so a deadline that starts at submission is an
    honest per-cell clock.  The failure rules:

    * An attempt that replied returns its worker to the idle list.  A
      simulation exception is a reply: the outcome carries the error.
    * An attempt whose worker is lost (its reply pipe hit EOF, or its
      request could not be written) is a ``WorkerCrash``.
    * An attempt still running at its deadline is a ``CellTimeout``.
    * After a crash or a timeout, only that worker is killed, reaped,
      closed and dropped from the pool; the next :meth:`start` forks a
      replacement.  No other attempt is touched.

    A crash or a timeout costs the cell one attempt: it is requeued
    after :func:`backoff_delay`, until ``max_attempts`` fails it.
    Settling closes a failed attempt's pipes, so a caller that waits on
    workers in a selector unregisters the settled worker before the next
    :meth:`start` can fork a pipe that reuses its fd number.  Workers
    are made with ``os.fork``.
    """

    def __init__(
        self,
        workers: int,
        *,
        timeout: Optional[float] = None,
        max_attempts: int = 3,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.workers = max(1, workers)
        self.timeout = timeout
        self.max_attempts = max(1, max_attempts)
        #: Every live worker, and those waiting for an attempt.
        self._procs: List[_Worker] = []
        self._idle: List[_Worker] = []
        #: The :data:`_POOL_COUNTS` tallies (``/stats`` ``scheduler.*``);
        #: pass ``counts`` to keep one tally across several pools.
        self.counts = (
            counts if counts is not None else dict.fromkeys(_POOL_COUNTS, 0)
        )

    def start(self, cell: Cell) -> None:
        """Send ``cell``'s next attempt to a worker; its deadline starts now."""
        if self._idle:
            worker = self._idle.pop()
        else:
            worker = _Worker(self._procs)
            self._procs.append(worker)
        cell.attempts += 1
        cell.status = "running"
        cell.worker = worker
        cell.started = time.monotonic()
        cell.deadline = None if self.timeout is None else cell.started + self.timeout
        worker.send(cell.spec)

    def ended(self, cell: Cell, now: float) -> bool:
        """Whether ``cell``'s attempt is over: replied, lost or overdue
        (reads what its reply pipe holds)."""
        return cell.worker.poll() or (
            cell.deadline is not None and now >= cell.deadline)

    def settle(self, cell: Cell) -> Optional[float]:
        """Classify how ``cell``'s attempt ended.

        Returns None once the cell is terminal (``cell.outcome`` is set),
        otherwise the backoff in seconds before it may :meth:`start`
        again.
        """
        worker = cell.worker
        if not worker.poll():
            kind, counter = CELL_TIMEOUT, "timeouts"
            reason = f"exceeded the {self.timeout}s per-cell deadline"
        else:
            outcome = worker.take()
            if outcome is not None:
                self._idle.append(worker)
                cell.outcome = outcome
                cell.status = "done" if outcome.ok else "failed"
                return None
            cell.crashes += 1
            kind, counter = WORKER_CRASH, "worker_crashes"
            reason = f"worker process died {cell.crashes} time(s)"
        self.counts[counter] += 1
        cell.last_error = f"{kind}: {reason}"
        self._procs.remove(worker)
        worker.close()
        if cell.attempts < self.max_attempts:
            self.counts["requeues"] += 1
            cell.status = "backoff"
            return backoff_delay(cell.attempts, key=cell.key)
        cell.status = "failed"
        cell.outcome = RunOutcome(
            spec=cell.spec,
            error=RunError(
                exc_type=kind,
                message=f"{reason} (gave up after {cell.attempts} attempt(s))",
                traceback="",
                workload=cell.spec.workload,
                policy=cell.spec.policy.name,
                seed=cell.spec.seed,
                attempts=cell.attempts,
            ),
        )
        return None

    def close(self) -> None:
        """Kill and reap every worker and close its pipes; the next
        :meth:`start` forks afresh."""
        procs, self._procs, self._idle = self._procs, [], []
        for worker in procs:
            worker.close()


class CellScheduler:
    """The one cell scheduler loop, one :meth:`step` at a time.

    :func:`run_many` steps it between waits on the running attempts'
    workers, the serve daemon between ``select()`` calls.  Cells join
    ``queue`` at any time and start in FIFO order, at most
    ``pool.workers`` at once; a requeued cell rejoins it when its backoff
    expires, and one whose status became ``cancelled`` meanwhile is
    dropped, not started.  Each started attempt goes to ``on_start``,
    each settled one to ``on_settled`` (the cell is terminal unless its
    status is ``backoff``).
    """

    def __init__(self, pool: CellPool, on_settled: Callable[[Cell], None],
                 on_start: Optional[Callable[[Cell], None]] = None) -> None:
        self.pool = pool
        self.on_settled = on_settled
        self.on_start = on_start
        self.queue: List[Cell] = []
        self.backoff: List[Tuple[float, Cell]] = []  # (earliest restart, cell)
        self.running: List[Cell] = []

    def step(self) -> Optional[float]:
        """Settle the attempts that ended and start what fits; return the
        ``time.monotonic()`` of the next backoff expiry or deadline (None:
        only a finished attempt can change anything)."""
        pool, now = self.pool, time.monotonic()
        for cell in [cell for cell in self.running if pool.ended(cell, now)]:
            self.running.remove(cell)
            delay = pool.settle(cell)
            if delay is not None:
                self.backoff.append((now + delay, cell))
            self.on_settled(cell)
        self.queue += [cell for ready, cell in self.backoff if ready <= now]
        self.backoff = [(ready, cell) for ready, cell in self.backoff if ready > now]
        while self.queue and len(self.running) < pool.workers:
            cell = self.queue.pop(0)
            if cell.status == "cancelled":
                continue
            pool.start(cell)
            self.running.append(cell)
            if self.on_start is not None:
                self.on_start(cell)
        now = time.monotonic()
        if any(pool.ended(cell, now) for cell in self.running):
            return now  # a reply read in full here leaves select() nothing
        wakeups = [ready for ready, _ in self.backoff]
        wakeups += [c.deadline for c in self.running if c.deadline is not None]
        return min(wakeups, default=None)


def _run_pooled(scheduler: CellScheduler) -> None:
    """Step ``scheduler`` until every cell is terminal, waiting in
    between, then close its pool.

    Each terminal cell reaches ``on_settled`` at once, so an interrupt
    loses only the attempts in flight, and their workers are killed.
    """
    import select

    try:
        while scheduler.queue or scheduler.backoff or scheduler.running:
            wake = scheduler.step()
            timeout = None if wake is None else max(0.0, wake - time.monotonic())
            if scheduler.running:
                select.select([cell.worker for cell in scheduler.running],
                              [], [], timeout)
            elif timeout:
                time.sleep(timeout)
    finally:
        scheduler.pool.close()


def _run_via_serve(
    specs: List[RunSpec], serve_url: Optional[str]
) -> Optional[List[RunOutcome]]:
    """Execute specs against a remote daemon, or None if it's unreachable."""
    from repro.serve.client import ServeClient, ServeUnavailable

    url = serve_url or os.environ.get(SERVE_URL_ENV) or _DEFAULT_SERVE_URL
    client = ServeClient(url, retries=2)
    try:
        return client.run_many(specs)
    except ServeUnavailable as exc:
        print(
            f"serve backend unreachable ({exc}); falling back to local execution",
            file=sys.stderr,
        )
        return None


def run_many(
    specs: Sequence[RunSpec],
    workers: int = 1,
    store: Optional[Any] = None,
    *,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backend: str = "local",
    serve_url: Optional[str] = None,
) -> List[RunOutcome]:
    """Execute every spec and return outcomes in submission order.

    The cells the store does not hold run on a :class:`CellPool` of up
    to ``workers`` forked processes, at most ``workers`` in flight.  The
    call builds the pool, which forks a worker only when a cell needs
    one, and closes it before it returns.  The returned list lines up
    index-for-index with ``specs``, and results are identical at every
    width (each run is a self-contained deterministic simulation).

    ``store`` (a :class:`~repro.experiments.store.ResultStore`) is
    consulted per spec before simulating — hits come back as cached
    outcomes with verified fingerprints — and populated with each fresh
    successful result as it finishes, so an interrupted sweep keeps its
    finished cells.  Failed runs are never cached.

    Resilience knobs:

    * ``timeout`` — per-attempt wall-clock deadline in seconds, starting
      at submission.
    * ``max_attempts`` — attempts per cell.  A deadline overrun or a
      lost worker costs one and requeues the cell on a fresh worker; the
      last one fails it as ``CellTimeout`` or ``WorkerCrash``, so a hung
      cell costs up to ``max_attempts * timeout`` (``max_attempts=1``
      fails it on the first overrun).  See :class:`CellPool`.
    * ``backend="serve"`` — execute cold cells on a remote ``repro-sim
      serve`` daemon (``serve_url``, ``$REPRO_SIM_SERVE``, or
      localhost:8787), falling back to local execution when the daemon
      is unreachable.  Remote results are fingerprint-verified and used
      to warm the local ``store``.
    """
    specs = list(specs)
    if not specs:
        return []
    _bind_runmany_retries()
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)

    def record(index: int, outcome: RunOutcome) -> None:
        outcomes[index] = outcome
        if store is not None and outcome.ok:
            store.put(outcome)

    pending: List[Tuple[int, RunSpec]] = []
    for index, spec in enumerate(specs):
        outcomes[index] = store.fetch(spec) if store is not None else None
        if outcomes[index] is None:
            pending.append((index, spec))

    if pending and backend == "serve":
        served = _run_via_serve([spec for _, spec in pending], serve_url)
        if served is not None:
            for (index, _), outcome in zip(pending, served):
                record(index, outcome)
            pending = []
    if pending:
        index_of = {Cell(spec, key=spec.label): index for index, spec in pending}

        def settled(cell: Cell) -> None:
            if cell.status != "backoff":
                record(index_of[cell], cell.outcome)

        scheduler = CellScheduler(
            CellPool(workers, timeout=timeout, max_attempts=max_attempts,
                     counts=_RUNMANY_COUNTS),
            settled,
        )
        scheduler.queue.extend(index_of)
        _run_pooled(scheduler)
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]


def result_fingerprint(result: RunResult) -> dict:
    """Every deterministic observable of a run, for equality checks.

    Two runs of the same spec must produce identical fingerprints whether
    they executed serially or in a worker process.
    """
    return {
        "execution_time": result.execution_time,
        "counters": result.counters.as_dict(),
        "network_bits": result.network_bits,
        "network_messages": result.network_messages,
        "bits_by_kind": result.bits_by_kind,
        "count_by_kind": result.count_by_kind,
        "events_processed": result.events_processed,
        "policy": result.policy_name,
        "consistency": result.consistency_name,
    }


def run_pairs(
    specs: Sequence[RunSpec],
    workers: int = 1,
    store: Optional[Any] = None,
    **run_kwargs,
) -> List[Tuple[RunResult, RunResult]]:
    """Execute an even list of specs and unwrap them as (even, odd) pairs.

    Convenience for W-I/AD sweeps: callers interleave the two protocol
    specs per sweep point and get back one result pair per point.
    """
    if len(specs) % 2:
        raise ValueError(f"run_pairs needs an even spec count, got {len(specs)}")
    outcomes = run_many(specs, workers=workers, store=store, **run_kwargs)
    return [
        (outcomes[i].unwrap(), outcomes[i + 1].unwrap())
        for i in range(0, len(outcomes), 2)
    ]
