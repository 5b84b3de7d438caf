"""Crash recovery in the parallel runner: timeouts, dead workers, retry.

The misbehaving workloads come from ``chaos_workloads`` (registered into
the live registry at import); every test rebuilds the shared pool first
so forked workers inherit those registrations.  The core contract under
test: a worker crash never loses completed work or determinism — after
pool rebuild and bounded retries, surviving results are byte-identical
to a serial run.
"""

import os
import signal

import pytest

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

import repro.experiments.parallel as parallel
from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import (
    CELL_TIMEOUT,
    WORKER_CRASH,
    RunSpec,
    backoff_delay,
    result_fingerprint,
    run_many,
    shutdown_pool,
)
from repro.experiments.store import ResultStore


@pytest.fixture(autouse=True)
def fresh_pool():
    """Workers must fork after chaos_workloads registered its factories."""
    shutdown_pool()
    yield
    shutdown_pool()


def _mig_spec(seed, **overrides):
    return RunSpec.make(
        "migratory-counters", ProtocolPolicy("AD"),
        preset="tiny", iterations=4, seed=seed, **overrides,
    )


def test_backoff_delay_deterministic_capped_and_jittered():
    assert backoff_delay(0) == 0.0
    assert backoff_delay(1, key="a") == backoff_delay(1, key="a")
    assert backoff_delay(1, key="a") != backoff_delay(1, key="b")
    # Exponential base growth under a hard cap, jitter in [0.5, 1.0).
    for attempt in range(1, 12):
        delay = backoff_delay(attempt, base=0.05, cap=2.0, key="x")
        ceiling = min(2.0, 0.05 * 2 ** (attempt - 1))
        assert 0.5 * ceiling <= delay <= ceiling
    assert backoff_delay(50, cap=2.0) <= 2.0


def test_worker_crash_recovers_and_matches_serial(tmp_path):
    """A worker that dies mid-batch (BrokenProcessPool) triggers pool
    rebuild + re-submission, and the final results are byte-identical to
    a crash-free serial run."""
    crash = RunSpec.make(
        "test-crash-once", ProtocolPolicy("AD"),
        preset="tiny", marker=str(tmp_path / "crash.marker"), seed=7,
    )
    specs = [crash, _mig_spec(1), _mig_spec(2)]
    outcomes = run_many(specs, workers=2)
    assert all(o.ok for o in outcomes), [str(o.error) for o in outcomes if not o.ok]
    assert (tmp_path / "crash.marker").exists()  # the crash really happened

    # Serial baseline: same specs, marker pre-created so nothing crashes.
    baseline_marker = tmp_path / "baseline.marker"
    baseline_marker.write_text("armed")
    baseline = RunSpec.make(
        "test-crash-once", ProtocolPolicy("AD"),
        preset="tiny", marker=str(baseline_marker), seed=7,
    )
    serial = run_many([baseline, _mig_spec(1), _mig_spec(2)], workers=1)
    for recovered, reference in zip(outcomes, serial):
        assert result_fingerprint(recovered.unwrap()) == result_fingerprint(
            reference.unwrap()
        )


def test_externally_killed_worker_does_not_poison_next_call():
    """Satellite: a dead worker must never be handed work for good by the
    next same-width run_many call: the attempt that meets it discards the
    pool and is retried on fresh workers."""
    specs = [_mig_spec(1), _mig_spec(2)]
    first = run_many(specs, workers=2)
    assert all(o.ok for o in first)
    pool = parallel._POOL
    workers = pool.processes()
    assert len(workers) == 2
    # Kill an idle worker out from under the cached pool (OOM-killer sim).
    workers[0].kill()
    generation = pool.generation
    again = run_many(specs, workers=2)
    assert all(o.ok for o in again)
    assert parallel._POOL is pool and pool.generation == generation + 1
    assert not set(pool.processes()) & set(workers)  # the pool was discarded
    for a, b in zip(first, again):
        assert result_fingerprint(a.unwrap()) == result_fingerprint(b.unwrap())


def test_pool_leaves_no_fd_open_and_no_child_unreaped():
    """A timed-out cell, an externally killed worker, an interrupted sweep
    and shutdown_pool() leave this process with the fds it had before its
    first pool and with no child to reap."""
    fds = len(os.listdir("/proc/self/fd"))
    hang = RunSpec.make("test-hang", ProtocolPolicy("AD"), preset="tiny",
                        seconds=30.0, seed=3)
    outcomes = run_many([hang, _mig_spec(1)], workers=2, timeout=0.5,
                        max_attempts=2)
    assert outcomes[0].error.exc_type == CELL_TIMEOUT and outcomes[1].ok
    assert run_many([_mig_spec(2), _mig_spec(3)], workers=2)[0].ok
    parallel._POOL.processes()[0].kill()
    assert all(o.ok for o in run_many([_mig_spec(2), _mig_spec(3)], workers=2))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):  # Ctrl-C while both cells hang
            run_many([hang, RunSpec.make("test-hang", ProtocolPolicy("W-I"),
                                         preset="tiny", seconds=30.0)],
                     workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert parallel._POOL.processes() == []  # the hung workers were killed
    shutdown_pool()
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cell_timeout_yields_structured_error_not_hang():
    hang = RunSpec.make(
        "test-hang", ProtocolPolicy("AD"),
        preset="tiny", seconds=30.0, seed=3,
    )
    specs = [hang, _mig_spec(1), _mig_spec(2)]
    outcomes = run_many(specs, workers=2, timeout=1.0)
    assert not outcomes[0].ok
    assert outcomes[0].error.exc_type == CELL_TIMEOUT
    assert "1.0s per-cell" in outcomes[0].error.message
    assert outcomes[1].ok and outcomes[2].ok
    # The pool was rebuilt (stuck worker reclaimed); next call is healthy.
    healthy = run_many([_mig_spec(4)], workers=2)
    assert healthy[0].ok


def test_worker_crash_exhausts_attempts_with_accounting():
    crash = RunSpec.make(
        "test-crash-always", ProtocolPolicy("AD"),
        preset="tiny", seed=1,
    )
    outcomes = run_many([crash, RunSpec.make(
        "test-crash-always", ProtocolPolicy("W-I"),
        preset="tiny", seed=1,
    )], workers=2, max_attempts=2)
    for outcome in outcomes:
        assert not outcome.ok
        assert outcome.error.exc_type == WORKER_CRASH
        assert outcome.error.attempts == 2
        assert "died 2 time(s)" in outcome.error.message
    # The shared pool is usable again afterwards.
    assert run_many([_mig_spec(9)], workers=2)[0].ok


def test_interrupted_sweep_resumes_from_the_store(tmp_path):
    """Ctrl-C mid-sweep keeps every finished cell in the store, so
    rerunning the same sweep recomputes only the cells it never finished."""
    specs = [
        _mig_spec(1),
        _mig_spec(2),
        RunSpec.make(
            "test-interrupt-once", ProtocolPolicy("AD"),
            preset="tiny", marker=str(tmp_path / "interrupt.marker"),
        ),
        _mig_spec(3),
    ]
    store = ResultStore(tmp_path / "cache")
    with pytest.raises(KeyboardInterrupt):
        run_many(specs, store=store)
    assert store.stats.stores == 2

    rerun = ResultStore(tmp_path / "cache")
    outcomes = run_many(specs, store=rerun)
    assert all(o.ok for o in outcomes)
    assert (rerun.stats.hits, rerun.stats.misses) == (2, 2)
    assert [o.cached for o in outcomes] == [True, True, False, False]
