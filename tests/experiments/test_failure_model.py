"""One failure model: ``run_many`` and the serve daemon end cells alike.

Each chaos scenario runs through both cell schedulers — ``run_many`` on a
two-worker pool, and an in-process ``ExperimentServer`` with two
workers — and must reach the same terminal ``(exc_type, attempts,
message)`` and report the same number of requeues in its metrics.
Recovered cells must be byte-identical to a serial run.
"""

import pytest

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import (
    RunOutcome,
    RunSpec,
    result_fingerprint,
    run_many,
    shutdown_pool,
)
from repro.experiments.store import ResultStore, result_from_json
from repro.obs.metrics import REGISTRY, MetricsRegistry, parse_exposition
from repro.serve import ServeClient
from tests.experiments.test_serve import running_server


@pytest.fixture(autouse=True)
def fresh_pool():
    """Workers must fork after chaos_workloads registered its factories."""
    shutdown_pool()
    yield
    shutdown_pool()


def _runmany_retries():
    retries = REGISTRY.get("repro_runmany_retries_total")
    return retries.value if retries is not None else 0


def _local(specs, tmp_path, **resilience):
    """The outcomes, and the requeues ``repro_runmany_retries_total`` saw."""
    before = _runmany_retries()
    outcomes = run_many(specs, workers=2, **resilience)
    return outcomes, _runmany_retries() - before


def _served(specs, tmp_path, timeout=None, **resilience):
    """The outcomes, and the daemon's ``repro_serve_requeues_total``.

    A finished cell's result is read back from ``/results/<key>``, since
    the daemon holds none; a failed cell keeps its outcome for the error.
    """
    with running_server(
        ResultStore(tmp_path / "served"), workers=2,
        cell_timeout=timeout, registry=MetricsRegistry(), **resilience,
    ) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        status = client.wait(client.submit_specs(specs)["job"], timeout=120)
        families = parse_exposition(client.metrics())
        outcomes = []
        for spec, cell in zip(specs, status["cells"]):
            if cell["status"] == "failed":
                outcomes.append(srv.cells[cell["key"]].outcome)
            else:
                entry = client.result(cell["key"])
                outcomes.append(RunOutcome(
                    spec, result=result_from_json(entry["result"])))
        return outcomes, families["repro_serve_requeues_total"].value()


def _spec(workload, policy=None, seed=1, **overrides):
    return RunSpec.make(
        workload, policy or ProtocolPolicy("AD"),
        preset="tiny", seed=seed, **overrides,
    )


@pytest.mark.parametrize("scenario", ["crash-once", "crash-always", "hang"])
@pytest.mark.parametrize("execute", [_local, _served], ids=["run_many", "serve"])
def test_run_many_and_serve_share_one_failure_model(execute, scenario, tmp_path):
    healthy = _spec("migratory-counters", iterations=4)
    if scenario == "crash-once":
        marker = tmp_path / "crash.marker"
        specs = [_spec("test-crash-once", seed=7, marker=str(marker)), healthy]
        outcomes, requeues = execute(specs, tmp_path)
        assert marker.exists()  # the worker really died once
        # The crashed cell's requeue, plus the healthy cell's when the
        # crash broke the pool while it was still running.
        assert requeues in (1, 2)
        # The marker now exists, so the same specs run serially unharmed.
        serial = run_many(specs, workers=1)
        for recovered, reference in zip(outcomes, serial):
            assert result_fingerprint(recovered.unwrap()) == result_fingerprint(
                reference.unwrap()
            )
        return
    if scenario == "crash-always":
        specs = [
            _spec("test-crash-always"),
            _spec("test-crash-always", ProtocolPolicy("W-I")),
        ]
        outcomes, requeues = execute(specs, tmp_path, max_attempts=2)
        expected = [("WorkerCrash", 2, "worker process died 2 time(s) "
                     "(gave up after 2 attempt(s))")] * 2
        expected_requeues = 2  # each cell's first attempt
    else:
        specs = [_spec("test-hang", seconds=30.0), healthy]
        outcomes, requeues = execute(specs, tmp_path, timeout=0.5, max_attempts=2)
        expected = [("CellTimeout", 2, "exceeded the 0.5s per-cell deadline "
                     "(gave up after 2 attempt(s))")]
        expected_requeues = 1  # the hang's first overrun
        assert outcomes[1].ok
    terminal = [
        (outcome.error.exc_type, outcome.error.attempts, outcome.error.message)
        for outcome in outcomes[:len(expected)]
    ]
    assert terminal == expected
    assert requeues == expected_requeues


def test_runmany_retry_count_survives_pool_replacement(tmp_path):
    """``repro_runmany_retries_total`` counts for every run_many pool in
    the process, so a width change that replaces the pool keeps it."""
    marker = tmp_path / "crash.marker"
    healthy = _spec("migratory-counters", iterations=4)
    crash = _spec("test-crash-once", seed=7, marker=str(marker))
    _, requeues = _local([crash, healthy], tmp_path)
    assert requeues >= 1
    retries = _runmany_retries()
    run_many([healthy, _spec("migratory-counters", seed=2, iterations=4)],
             workers=3)
    assert _runmany_retries() == retries
