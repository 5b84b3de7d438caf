"""One failure model: ``run_many`` and the serve daemon end cells alike.

Each chaos scenario runs through both cell schedulers — ``run_many`` on a
two-worker pool, and an in-process ``ExperimentServer`` with two
workers — and must reach the same terminal ``(exc_type, attempts,
message)``.  Recovered cells must be byte-identical to a serial run.
"""

import pytest

import tests.experiments.chaos_workloads  # noqa: F401 - registers test workloads

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import (
    RunSpec,
    result_fingerprint,
    run_many,
    shutdown_pool,
)
from repro.experiments.store import ResultStore
from repro.serve import ServeClient
from tests.experiments.test_serve import running_server


@pytest.fixture(autouse=True)
def fresh_pool():
    """Workers must fork after chaos_workloads registered its factories."""
    shutdown_pool()
    yield
    shutdown_pool()


def _local(specs, tmp_path, **resilience):
    return run_many(specs, workers=2, **resilience)


def _served(specs, tmp_path, timeout=None, **resilience):
    with running_server(
        ResultStore(tmp_path / "served"), workers=2,
        cell_timeout=timeout, **resilience,
    ) as srv:
        client = ServeClient(f"http://127.0.0.1:{srv.port}")
        status = client.wait(client.submit_specs(specs)["job"], timeout=120)
        return [srv.cells[cell["key"]].outcome for cell in status["cells"]]


def _spec(workload, policy=None, seed=1, **overrides):
    return RunSpec.make(
        workload, policy or ProtocolPolicy.adaptive_default(),
        preset="tiny", seed=seed, **overrides,
    )


@pytest.mark.parametrize("scenario", ["crash-once", "crash-always", "hang"])
@pytest.mark.parametrize("execute", [_local, _served], ids=["run_many", "serve"])
def test_run_many_and_serve_share_one_failure_model(execute, scenario, tmp_path):
    healthy = _spec("migratory-counters", iterations=4)
    if scenario == "crash-once":
        marker = tmp_path / "crash.marker"
        specs = [_spec("test-crash-once", seed=7, marker=str(marker)), healthy]
        outcomes = execute(specs, tmp_path)
        assert marker.exists()  # the worker really died once
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
            _spec("test-crash-always", ProtocolPolicy.write_invalidate()),
        ]
        outcomes = execute(specs, tmp_path, max_attempts=2)
        expected = [("WorkerCrash", 2, "worker process died 2 time(s) "
                     "(gave up after 2 attempt(s))")] * 2
    else:
        specs = [_spec("test-hang", seconds=30.0), healthy]
        outcomes = execute(specs, tmp_path, timeout=0.5, max_attempts=2)
        expected = [("CellTimeout", 2, "exceeded the 0.5s per-cell deadline "
                     "(gave up after 2 attempt(s))")]
        assert outcomes[1].ok
    terminal = [
        (outcome.error.exc_type, outcome.error.attempts, outcome.error.message)
        for outcome in outcomes[:len(expected)]
    ]
    assert terminal == expected
