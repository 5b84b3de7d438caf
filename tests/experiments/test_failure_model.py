"""One failure model: ``run_many`` and the serve daemon end cells alike.

Each chaos scenario runs through three cell schedulers — ``run_many`` on
a two-worker pool, ``run_many`` on one worker, and an in-process
``ExperimentServer`` with two workers — and must reach the same
terminal ``(exc_type, attempts, message)`` per cell and the same pool
tallies.  A failure costs only the cell whose worker it was: a healthy
neighbour still finishes in one attempt.  Recovered cells must be
byte-identical to an undisturbed run.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.core.policy import ProtocolPolicy
from repro.experiments import parallel
from repro.experiments.parallel import (
    RunOutcome,
    RunSpec,
    result_fingerprint,
    run_many,
)
from repro.experiments.store import ResultStore, result_from_json
from repro.obs.metrics import REGISTRY, MetricsRegistry, parse_exposition
from repro.serve import ServeClient
from tests.experiments.test_serve import running_server

REPO = Path(__file__).resolve().parents[2]

#: What one width-1 run_many reports from its own interpreter.
_WIDTH1 = """
import pickle, sys
import tests.experiments.chaos_workloads
import repro.experiments.runner  # workers fork with the simulator loaded
from repro.experiments import parallel
from repro.obs.metrics import REGISTRY

specs, resilience = pickle.load(sys.stdin.buffer)
outcomes = parallel.run_many(specs, workers=1, **resilience)
counts = dict(parallel._RUNMANY_COUNTS)
assert REGISTRY.get("repro_runmany_retries_total").value == counts["requeues"]
pickle.dump((outcomes, counts), sys.stdout.buffer)
"""


def _runmany_retries():
    retries = REGISTRY.get("repro_runmany_retries_total")
    return retries.value if retries is not None else 0


def _local(specs, tmp_path, **resilience):
    """The outcomes, and the pool tallies this call added."""
    before, retries = dict(parallel._RUNMANY_COUNTS), _runmany_retries()
    outcomes = run_many(specs, workers=2, **resilience)
    counts = {key: value - before[key]
              for key, value in parallel._RUNMANY_COUNTS.items()}
    # bench/ reads the requeue tally through the registry.
    assert _runmany_retries() - retries == counts["requeues"]
    return outcomes, counts


def _width1(specs, tmp_path, **resilience):
    """``_local`` at ``workers=1``, in a child interpreter, so a crash
    that reached this process would end the child and not pytest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _WIDTH1], input=pickle.dumps((specs, resilience)),
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


def _served(specs, tmp_path, timeout=None, **resilience):
    """The outcomes, and the daemon's pool tallies from ``/stats``.

    A finished cell's result is read back from ``/results/<key>``, since
    the daemon holds none; a failed cell keeps its outcome for the error.
    """
    with running_server(
        ResultStore(tmp_path / "served"), workers=2,
        cell_timeout=timeout, registry=MetricsRegistry(), **resilience,
    ) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        status = client.wait(client.submit_specs(specs)["job"], timeout=120)
        scheduler = client.stats()["scheduler"]
        counts = {key: scheduler[key] for key in parallel._POOL_COUNTS}
        families = parse_exposition(client.metrics())
        assert families["repro_serve_requeues_total"].value() == counts["requeues"]
        outcomes = []
        for spec, cell in zip(specs, status["cells"]):
            if cell["status"] == "failed":
                outcomes.append(srv.cells[cell["key"]].outcome)
            else:
                entry = client.result(cell["key"])
                outcomes.append(RunOutcome(
                    spec, result=result_from_json(entry["result"])))
        return outcomes, counts


def _spec(workload, policy=None, seed=1, **overrides):
    return RunSpec.make(
        workload, policy or ProtocolPolicy("AD"),
        preset="tiny", seed=seed, **overrides,
    )


_CRASHED = ("WorkerCrash", 2,
            "worker process died 2 time(s) (gave up after 2 attempt(s))")
_TIMED_OUT = ("CellTimeout", 2,
              "exceeded the 0.5s per-cell deadline (gave up after 2 attempt(s))")


def _tallies(requeues, timeouts, worker_crashes):
    return {"requeues": requeues, "timeouts": timeouts,
            "worker_crashes": worker_crashes}


def _scenario(name, tmp_path):
    """A scenario's specs and resilience options, each cell's expected
    end (None for ok, else its terminal ``(exc_type, attempts,
    message)``), and the pool tallies the run must add."""
    healthy = _spec("migratory-counters", iterations=4)
    # A hang outlives its 0.5 s deadline by far, but stays short for a
    # scheduler that ignores the deadline.
    hang = _spec("test-hang", seconds=3.0)
    crash = _spec("test-crash-always")
    if name == "crash-once":
        marker = tmp_path / "crash.marker"
        return ([_spec("test-crash-once", seed=7, marker=str(marker)), healthy],
                {}, [None, None], _tallies(1, 0, 1))
    if name == "crash-always":
        return ([crash, _spec("test-crash-always", ProtocolPolicy("W-I"))],
                {"max_attempts": 2}, [_CRASHED, _CRASHED], _tallies(2, 0, 4))
    if name == "crash-beside-healthy":
        # The sleeper still runs when its neighbour's worker dies twice.
        return ([crash, _spec("test-hang", seconds=1.0)],
                {"max_attempts": 2}, [_CRASHED, None], _tallies(1, 0, 2))
    if name == "hang":
        return ([hang, healthy], {"timeout": 0.5, "max_attempts": 2},
                [_TIMED_OUT, None], _tallies(1, 2, 0))
    assert name == "two-hangs"
    return ([hang, _spec("test-hang", ProtocolPolicy("W-I"), seconds=3.0)],
            {"timeout": 0.5, "max_attempts": 2}, [_TIMED_OUT, _TIMED_OUT],
            _tallies(2, 4, 0))


@pytest.mark.parametrize("scenario", [
    "crash-once", "crash-always", "hang", "crash-beside-healthy", "two-hangs",
])
@pytest.mark.parametrize("execute", [_local, _served, _width1],
                         ids=["run_many", "serve", "run_many_width1"])
def test_run_many_and_serve_share_one_failure_model(execute, scenario, tmp_path):
    specs, resilience, ends, tallies = _scenario(scenario, tmp_path)
    outcomes, counts = execute(specs, tmp_path, **resilience)
    assert [
        None if outcome.ok else
        (outcome.error.exc_type, outcome.error.attempts, outcome.error.message)
        for outcome in outcomes
    ] == ends
    assert counts == tallies
    if scenario == "crash-once":
        assert (tmp_path / "crash.marker").exists()  # the worker really died
        # The marker now exists, so the same specs run unharmed.
        for recovered, reference in zip(outcomes, run_many(specs)):
            assert result_fingerprint(recovered.unwrap()) == result_fingerprint(
                reference.unwrap()
            )


def test_runmany_retry_count_survives_pool_replacement(tmp_path):
    """``repro_runmany_retries_total`` counts for every run_many pool in
    the process, so the next call, which builds a pool of its own,
    keeps it."""
    marker = tmp_path / "crash.marker"
    healthy = _spec("migratory-counters", iterations=4)
    crash = _spec("test-crash-once", seed=7, marker=str(marker))
    _, counts = _local([crash, healthy], tmp_path)
    assert counts["requeues"] == 1
    retries = _runmany_retries()
    run_many([healthy, _spec("migratory-counters", seed=2, iterations=4)],
             workers=3)
    assert _runmany_retries() == retries
