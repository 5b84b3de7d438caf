"""Parallel experiment execution: fan independent runs out over processes.

The paper's evaluation sweeps every workload under both protocols across
many machine configurations (Figures 5-6, Tables 3-4).  Each simulation
is an independent, deterministic, pure-Python event loop, so the natural
unit of parallelism is one whole run: this module describes a run as a
picklable :class:`RunSpec`, executes batches of them with
:func:`run_many`, and returns :class:`RunOutcome` objects in the exact
order the specs were given regardless of completion order.

Design points:

* **Processes, not threads.**  A run is CPU-bound Python; the pool uses
  a :class:`concurrent.futures.ProcessPoolExecutor` (``fork`` where
  available, ``spawn`` otherwise).
* **Deterministic ordering.**  Results are re-indexed by submission
  order, so ``run_many(specs, workers=8)`` is byte-identical to
  ``run_many(specs, workers=1)``.
* **Per-run error capture.**  A failing run produces a structured
  :class:`RunError` inside its outcome instead of killing the pool; the
  other runs complete normally.
* **Crash recovery.**  A worker process that dies (OOM kill, segfault,
  ``os._exit``) breaks the executor; the in-flight cells are re-submitted
  on a fresh pool a bounded number of times (``max_attempts``), and the
  poisoned pool is discarded so it can never be handed to a later call.
* **Per-cell wall-clock timeouts.**  ``run_many(..., timeout=...)`` caps
  each cell's running time; a stuck cell yields a ``CellTimeout``
  :class:`RunError` (and a pool rebuild reclaims its worker) instead of
  hanging the whole sweep.  Timeouts need the pool: the serial inline
  path cannot preempt a run and ignores ``timeout``.
* **Checkpointed sweeps.**  ``run_many(..., checkpoint=...)`` records
  per-cell progress in a
  :class:`~repro.experiments.checkpoint.SweepCheckpoint`; an interrupt
  (Ctrl-C) saves the checkpoint and raises
  :class:`~repro.experiments.checkpoint.SweepInterrupted` carrying the
  partial results, so the sweep can be relaunched to recompute only cold
  cells (the :class:`ResultStore` holds the warm ones).
* **Graceful serial fallback.**  ``workers=1``, a single spec, or a
  platform without multiprocessing support all run inline in this
  process (no pool, no pickling).
* **Pool reuse.**  The process pool persists across :func:`run_many`
  calls (sweeps are many small phases; rebuilding a pool per phase costs
  more than the fan-out saves on short batches), and batches are chunked
  so workers amortize IPC over several runs.
* **Result-cache consultation.**  ``run_many(..., store=...)`` serves
  previously computed cells from a
  :class:`~repro.experiments.store.ResultStore` and populates it with
  fresh ones; cached outcomes are fingerprint-verified and byte-identical
  to recomputation.
* **Remote execution.**  ``run_many(..., backend="serve")`` ships the
  cold cells to a ``repro-sim serve`` daemon
  (:class:`~repro.serve.client.ServeClient`) and falls back to local
  execution when the daemon is unreachable.
"""

from __future__ import annotations

import atexit
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.consistency.models import ConsistencyModel, SEQUENTIAL_CONSISTENCY
from repro.core.policy import ProtocolPolicy
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.obs import metrics as obs_metrics
from repro.obs.log import correlation_scope, log_event, new_correlation_id

if TYPE_CHECKING:
    # The pool modules are imported only where a pool is built or drained,
    # so serial runs, the result store and the serve client never load them.
    import concurrent.futures
    import multiprocessing.context

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

_RUNMANY_METRICS: Optional[Dict[str, Any]] = None


def _runmany_metrics() -> Dict[str, Any]:
    """Sweep-runner instruments on the global registry, built once."""
    global _RUNMANY_METRICS
    if _RUNMANY_METRICS is None:
        _RUNMANY_METRICS = {
            "sweeps": obs_metrics.counter(
                "repro_runmany_sweeps_total", "run_many batches executed."),
            "cell_seconds": obs_metrics.histogram(
                "repro_runmany_cell_seconds",
                "Wall-clock seconds of one freshly simulated sweep cell."),
            "timeouts": obs_metrics.counter(
                "repro_runmany_timeouts_total",
                "Cells failed on the per-cell wall-clock deadline."),
            "pool_crashes": obs_metrics.counter(
                "repro_runmany_pool_crashes_total",
                "Retry rounds triggered by a poisoned worker pool."),
            "retries": obs_metrics.counter(
                "repro_runmany_retries_total",
                "Cells resubmitted to a fresh pool after a crash."),
            "backoffs": obs_metrics.counter(
                "repro_runmany_backoffs_total",
                "Backoff sleeps taken between retry rounds."),
        }
    return _RUNMANY_METRICS


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
    # Imported here so a forked/spawned worker resolves it at call time,
    # to avoid a module-level import cycle with runner.py, and so the
    # store and the serve daemon never load the simulator.
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


def execute_spec_with_cid(spec: RunSpec, cid: str = "") -> RunOutcome:
    """Worker entry point that binds a correlation id around the run.

    The serve daemon submits cells through this so a worker's structured
    log lines (``REPRO_LOG`` is inherited across the process boundary)
    carry the same ``cid`` the client minted for the job.
    """
    with correlation_scope(cid):
        log_event("worker", "run_started", cell=spec.label, pid=os.getpid())
        outcome = execute_spec(spec)
        log_event(
            "worker",
            "run_finished" if outcome.ok else "run_failed",
            level="info" if outcome.ok else "error",
            cell=spec.label,
            wall_time_s=round(outcome.wall_time, 6),
            error=str(outcome.error) if outcome.error else None,
        )
    return outcome


def _execute_indexed(item: Tuple[int, RunSpec]) -> Tuple[int, RunOutcome]:
    """Pool entry point: carry the submission index through the worker."""
    index, spec = item
    return index, execute_spec(spec)


def _execute_chunk(
    items: List[Tuple[int, RunSpec]],
) -> List[Tuple[int, RunOutcome]]:
    """Pool entry point: several runs per IPC round trip."""
    return [(index, execute_spec(spec)) for index, spec in items]


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """The preferred multiprocessing context, or None if unavailable."""
    import multiprocessing

    try:
        methods = multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return None
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None  # pragma: no cover - no known start method


def default_workers() -> int:
    """A sensible worker count for this host (>= 1)."""
    return max(1, os.cpu_count() or 1)


#: The shared worker pool, kept alive across run_many calls.  A sweep is
#: many small phases (one per table row/figure bar); rebuilding a pool
#: per phase used to cost more than short batches saved, which is how
#: the committed bench recorded a 0.91x "speedup".  :func:`shutdown_pool`
#: is registered atexit, and any executor failure (a crashed or hung
#: worker) discards the pool so a broken executor is never reused.
_POOL: Optional[concurrent.futures.ProcessPoolExecutor] = None
_POOL_WORKERS: int = 0


def shutdown_pool() -> None:
    """Tear down the shared worker pool, killing any hung workers.

    Used by tests, at interpreter exit, and whenever an executor failure
    poisons the pool (the next :func:`_shared_pool` call builds a fresh
    one).
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None:
        return
    discard, _POOL, _POOL_WORKERS = _POOL, None, 0
    processes = list((getattr(discard, "_processes", None) or {}).values())
    try:
        discard.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for process in processes:
        if process.is_alive():
            process.kill()


def _shared_pool(workers: int) -> Optional[concurrent.futures.ProcessPoolExecutor]:
    """A persistent pool of exactly ``workers`` processes, or None.

    The pool is rebuilt when the requested width changes or the executor
    is broken (a worker died); repeated healthy same-width calls (the
    sweep-phase pattern) reuse it as-is.
    """
    global _POOL, _POOL_WORKERS
    if (
        _POOL is not None
        and _POOL_WORKERS == workers
        and not getattr(_POOL, "_broken", False)
    ):
        return _POOL
    context = _pool_context()
    if context is None:
        return None
    import concurrent.futures

    shutdown_pool()
    _POOL = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    )
    _POOL_WORKERS = workers
    return _POOL


atexit.register(shutdown_pool)


def _default_chunksize(pending: int, workers: int) -> int:
    """Batch several runs per IPC round trip, keeping ~4 chunks/worker
    so the pool still load-balances uneven run lengths."""
    return max(1, pending // (workers * 4))


def _failed_outcome(
    spec: RunSpec, exc_type: str, message: str, attempts: int
) -> RunOutcome:
    return RunOutcome(
        spec=spec,
        error=RunError(
            exc_type=exc_type,
            message=message,
            traceback="",
            workload=spec.workload,
            policy=spec.policy.name,
            seed=spec.seed,
            attempts=attempts,
        ),
    )


def _drain_chunked(
    pool: concurrent.futures.ProcessPoolExecutor,
    pending: List[Tuple[int, RunSpec]],
    chunksize: Optional[int],
    workers: int,
) -> Tuple[List[Tuple[int, RunOutcome]], List[Tuple[int, RunSpec]], bool]:
    """Submit everything in chunks and collect what completes.

    Returns ``(completed, survivors, broken)``: cells whose chunk failed
    at the executor level (worker death, cancellation) come back as
    survivors with ``broken=True`` so the caller can retry them on a
    fresh pool.
    """
    import concurrent.futures

    size = chunksize or _default_chunksize(len(pending), workers)
    futures: Dict[Any, List[Tuple[int, RunSpec]]] = {}
    completed: List[Tuple[int, RunOutcome]] = []
    survivors: List[Tuple[int, RunSpec]] = []
    broken = False
    for start in range(0, len(pending), size):
        chunk = pending[start:start + size]
        try:
            futures[pool.submit(_execute_chunk, chunk)] = chunk
        except Exception:  # pool already broken: refuse, retry elsewhere
            survivors.extend(chunk)
            broken = True
    for future, chunk in futures.items():
        try:
            completed.extend(future.result())
        except (Exception, concurrent.futures.CancelledError):
            survivors.extend(chunk)
            broken = True
    return completed, survivors, broken


def _drain_windowed(
    pool: concurrent.futures.ProcessPoolExecutor,
    pending: List[Tuple[int, RunSpec]],
    timeout: float,
    workers: int,
) -> Tuple[
    List[Tuple[int, RunOutcome]],
    List[Tuple[int, RunSpec]],
    List[Tuple[int, RunSpec]],
    bool,
]:
    """Timeout-enforcing drain: at most ``workers`` cells in flight, each
    with its own wall-clock deadline starting at submission.

    Keeping the window no wider than the pool means a submitted cell has
    a free worker, so submission time ≈ start time and the deadline is an
    honest per-cell clock.  Returns ``(completed, survivors, timed_out,
    broken)``; a timed-out cell poisons the pool (its worker is stuck),
    so the round ends and the caller retries the survivors on a fresh
    pool.  Timed-out cells are *not* retried — a deterministic simulation
    that blew its deadline once will blow it again.
    """
    import concurrent.futures

    queue = list(pending)
    inflight: Dict[Any, Tuple[int, RunSpec, float]] = {}
    completed: List[Tuple[int, RunOutcome]] = []
    survivors: List[Tuple[int, RunSpec]] = []
    timed_out: List[Tuple[int, RunSpec]] = []
    broken = False
    while (queue or inflight) and not broken:
        while queue and len(inflight) < workers:
            index, spec = queue.pop(0)
            try:
                future = pool.submit(_execute_indexed, (index, spec))
            except Exception:
                survivors.append((index, spec))
                broken = True
                break
            inflight[future] = (index, spec, time.monotonic() + timeout)
        if broken or not inflight:
            break
        nearest = min(deadline for _, _, deadline in inflight.values())
        done, _ = concurrent.futures.wait(
            list(inflight),
            timeout=max(0.0, nearest - time.monotonic()),
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        if done:
            for future in done:
                index, spec, _ = inflight.pop(future)
                try:
                    completed.append(future.result())
                except (Exception, concurrent.futures.CancelledError):
                    survivors.append((index, spec))
                    broken = True
            continue
        # Nothing completed before the nearest deadline: every *running*
        # overdue cell is stuck.  Pending-but-overdue cells merely queued
        # behind a stuck worker; they survive to the retry round.
        now = time.monotonic()
        for future in list(inflight):
            index, spec, deadline = inflight[future]
            if deadline <= now and future.running():
                inflight.pop(future)
                timed_out.append((index, spec))
                future.cancel()
        broken = True
    if broken:
        survivors.extend((index, spec) for index, spec, _ in inflight.values())
        survivors.extend(queue)
    return completed, survivors, timed_out, broken


def _run_pooled(
    pending: List[Tuple[int, RunSpec]],
    workers: int,
    chunksize: Optional[int],
    timeout: Optional[float],
    max_attempts: int,
    on_result,
) -> None:
    """Execute pending cells on the shared pool with crash recovery.

    Worker crashes (``BrokenProcessPool``) discard the poisoned pool and
    re-submit the in-flight cells on a fresh one, up to ``max_attempts``
    rounds with deterministic backoff; cells still unfinished then fail
    with a ``WorkerCrash`` error carrying the attempt count.  Outcomes
    are delivered through ``on_result(index, outcome)`` as each retry
    round completes, so an interrupt loses at most the in-flight round
    (everything delivered is already recorded/checkpointed).
    """
    metrics = _runmany_metrics()
    remaining = list(pending)
    attempt = 0
    while remaining:
        pool = _shared_pool(workers)
        if pool is None:  # pragma: no cover - no multiprocessing support
            for index, spec in remaining:
                on_result(index, execute_spec(spec))
            return
        if timeout is None:
            completed, survivors, broken = _drain_chunked(
                pool, remaining, chunksize, workers
            )
            just_timed_out: List[Tuple[int, RunSpec]] = []
        else:
            completed, survivors, just_timed_out, broken = _drain_windowed(
                pool, remaining, timeout, workers
            )
        for index, outcome in completed:
            on_result(index, outcome)
        for index, spec in just_timed_out:
            metrics["timeouts"].inc()
            log_event("run_many", "cell_timeout", level="warning",
                      cell=spec.label, timeout_s=timeout)
            on_result(index, _failed_outcome(
                spec, CELL_TIMEOUT,
                f"exceeded the {timeout}s per-cell wall-clock deadline",
                attempts=attempt + 1,
            ))
        if not broken:
            return
        # The pool is poisoned (crashed worker or hung cell): discard it
        # so neither this retry round nor a later run_many call can be
        # handed a broken executor.
        shutdown_pool()
        metrics["pool_crashes"].inc()
        attempt += 1
        if attempt >= max_attempts:
            for index, spec in survivors:
                on_result(index, _failed_outcome(
                    spec, WORKER_CRASH,
                    f"worker pool died {attempt} time(s) running this batch",
                    attempts=attempt,
                ))
            return
        if survivors:
            metrics["retries"].inc(len(survivors))
            metrics["backoffs"].inc()
            log_event("run_many", "pool_retry", level="warning",
                      attempt=attempt, cells=len(survivors))
            time.sleep(backoff_delay(attempt, key=f"run_many:{len(pending)}"))
        remaining = sorted(survivors, key=lambda item: item[0])


def _run_via_serve(
    specs: List[RunSpec], serve_url: Optional[str], cid: str = ""
) -> Optional[List[RunOutcome]]:
    """Execute specs against a remote daemon, or None if it's unreachable."""
    from repro.serve.client import ServeClient, ServeUnavailable

    url = serve_url or os.environ.get(SERVE_URL_ENV) or _DEFAULT_SERVE_URL
    client = ServeClient(url, retries=2, cid=cid)
    try:
        return client.run_many(specs)
    except ServeUnavailable as exc:
        obs_metrics.counter(
            "repro_client_fallbacks_total",
            "backend=serve sweeps that fell back to local execution.",
        ).inc()
        log_event("run_many", "serve_fallback", level="warning",
                  url=url, error=str(exc))
        print(
            f"serve backend unreachable ({exc}); falling back to local execution",
            file=sys.stderr,
        )
        return None


def run_many(
    specs: Sequence[RunSpec],
    workers: int = 1,
    chunksize: Optional[int] = None,
    store: Optional[Any] = None,
    *,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    checkpoint: Optional[Any] = None,
    backend: str = "local",
    serve_url: Optional[str] = None,
) -> List[RunOutcome]:
    """Execute every spec and return outcomes in submission order.

    ``workers=1`` (or a single spec, or a platform without process
    support) runs serially in this process; otherwise a shared persistent
    pool of ``workers`` processes executes the batch, ``chunksize`` specs
    per task (default: ~4 chunks per worker).  Either way the returned
    list lines up index-for-index with ``specs`` and parallel results are
    identical to serial ones (each run is a self-contained deterministic
    simulation).

    ``store`` (a :class:`~repro.experiments.store.ResultStore`) is
    consulted per spec before simulating — hits come back as cached
    outcomes with verified fingerprints — and populated with every fresh
    successful result afterwards.  Failed runs are never cached.

    Resilience knobs:

    * ``timeout`` — per-cell wall-clock deadline in seconds (pooled
      execution only); a stuck cell fails with a ``CellTimeout`` error
      instead of hanging the sweep.
    * ``max_attempts`` — how many pool rebuild/retry rounds a worker
      crash may consume before the surviving cells fail with
      ``WorkerCrash``.
    * ``checkpoint`` — a
      :class:`~repro.experiments.checkpoint.SweepCheckpoint` updated as
      cells finish; a KeyboardInterrupt saves it and raises
      :class:`~repro.experiments.checkpoint.SweepInterrupted` with the
      partial outcomes.
    * ``backend="serve"`` — execute cold cells on a remote ``repro-sim
      serve`` daemon (``serve_url``, ``$REPRO_SIM_SERVE``, or
      localhost:8787), falling back to local execution when the daemon
      is unreachable.  Remote results are fingerprint-verified and used
      to warm the local ``store``.
    """
    specs = list(specs)
    if not specs:
        return []
    metrics = _runmany_metrics()
    metrics["sweeps"].inc()
    sweep_cid = new_correlation_id("sweep")
    if checkpoint is not None:
        checkpoint.begin(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)

    def record(index: int, outcome: RunOutcome, put: bool) -> None:
        outcomes[index] = outcome
        if not outcome.cached and outcome.wall_time:
            metrics["cell_seconds"].observe(outcome.wall_time)
        if put and store is not None and outcome.ok:
            store.put(outcome)
        if checkpoint is not None:
            checkpoint.record(specs[index], outcome)

    pending: List[Tuple[int, RunSpec]] = []
    for index, spec in enumerate(specs):
        hit = store.fetch(spec) if store is not None else None
        if hit is not None:
            record(index, hit, put=False)
        else:
            pending.append((index, spec))

    log_event("run_many", "sweep_started", cid=sweep_cid, cells=len(specs),
              cold=len(pending), workers=workers, backend=backend)
    try:
        with correlation_scope(sweep_cid):
            if pending and backend == "serve":
                served = _run_via_serve(
                    [spec for _, spec in pending], serve_url, cid=sweep_cid
                )
                if served is not None:
                    for (index, _), outcome in zip(pending, served):
                        record(index, outcome, put=True)
                    pending = []
            if pending:
                if workers > 1 and len(pending) > 1:
                    _run_pooled(
                        pending, workers, chunksize, timeout, max_attempts,
                        lambda index, outcome: record(
                            index, outcome, put=not outcome.cached
                        ),
                    )
                else:
                    # Record cell by cell so an interrupt keeps finished work.
                    for index, spec in pending:
                        outcome = execute_spec(spec)
                        record(index, outcome, put=not outcome.cached)
    except KeyboardInterrupt:
        if checkpoint is None:
            raise
        from repro.experiments.checkpoint import SweepInterrupted

        checkpoint.save()
        raise SweepInterrupted(outcomes, checkpoint) from None
    log_event("run_many", "sweep_finished", cid=sweep_cid, cells=len(specs),
              failed=sum(1 for o in outcomes if o is not None and not o.ok))
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
