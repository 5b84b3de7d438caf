"""Crash recovery in the parallel runner: timeouts, dead workers, retry.

The misbehaving workloads come from ``chaos_workloads`` (registered into
the live registry at import, before any ``run_many`` call forks its
workers).  The core contract under test: a worker crash never loses
completed work or determinism — after the lost worker is replaced and
its cell retried, surviving results are byte-identical to an
undisturbed run — and no call leaves a worker or a pipe behind.
"""

import os
import signal

import pytest

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import (
    CELL_TIMEOUT,
    WORKER_CRASH,
    RunSpec,
    backoff_delay,
    result_fingerprint,
    run_many,
)
from repro.experiments.store import ResultStore


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
    """A worker that dies mid-batch costs its cell one attempt on a fresh
    worker, and the final results are byte-identical to a crash-free
    run."""
    crash = RunSpec.make(
        "test-crash-once", ProtocolPolicy("AD"),
        preset="tiny", marker=str(tmp_path / "crash.marker"), seed=7,
    )
    specs = [crash, _mig_spec(1), _mig_spec(2)]
    outcomes = run_many(specs, workers=2)
    assert all(o.ok for o in outcomes), [str(o.error) for o in outcomes if not o.ok]
    assert (tmp_path / "crash.marker").exists()  # the crash really happened

    # Baseline: same specs, marker pre-created so nothing crashes.
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


def test_pool_leaves_no_fd_open_and_no_child_unreaped():
    """Every run_many call closes its pool before it returns: after a
    timed-out cell, a lost worker and an interrupted sweep alike, this
    process holds the fds it had and has no child to reap."""
    fds = len(os.listdir("/proc/self/fd"))

    def assert_released():
        assert len(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    hang = RunSpec.make("test-hang", ProtocolPolicy("AD"), preset="tiny",
                        seconds=30.0, seed=3)
    outcomes = run_many([hang, _mig_spec(1)], workers=2, timeout=0.5,
                        max_attempts=2)
    assert outcomes[0].error.exc_type == CELL_TIMEOUT and outcomes[1].ok
    assert_released()
    crash = RunSpec.make("test-crash-always", ProtocolPolicy("AD"),
                         preset="tiny")
    outcomes = run_many([crash, _mig_spec(2)], workers=2, max_attempts=1)
    assert outcomes[0].error.exc_type == WORKER_CRASH and outcomes[1].ok
    assert_released()

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
    assert_released()  # the hung workers were killed and reaped


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
