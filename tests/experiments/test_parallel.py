"""Parallel experiment runner: determinism and error capture.

The core guarantee under test: for a fixed (workload, seed, config), a
run produces identical observables every time — repeated in one
process, and through the forked workers of ``run_many`` at any width
(parallel results must be byte-identical to serial).
"""

import json
import math

import pytest

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import (
    RunSpec,
    execute_spec,
    freeze_value,
    result_fingerprint,
    run_many,
    run_pairs,
    thaw_value,
)
from repro.experiments.runner import ProtocolComparison, compare_protocols
from repro.machine.result import RunResult
from repro.stats.counters import Counters


def tiny_specs():
    """A small mixed batch: cheap runs across workloads and policies."""
    return [
        RunSpec.make(
            "migratory-counters", ProtocolPolicy("W-I"),
            iterations=6, tag="mig/W-I",
        ),
        RunSpec.make(
            "migratory-counters", ProtocolPolicy("AD"),
            iterations=6, tag="mig/AD",
        ),
        RunSpec.make(
            "producer-consumer", ProtocolPolicy("AD"),
            rounds=4, tag="pc/AD",
        ),
        RunSpec.make(
            "read-only", ProtocolPolicy("W-I"),
            read_rounds=4, tag="ro/W-I",
        ),
    ]


def test_same_spec_twice_is_deterministic():
    spec = tiny_specs()[1]
    first = execute_spec(spec).unwrap()
    second = execute_spec(spec).unwrap()
    assert first.execution_time == second.execution_time
    assert first.counters.as_dict() == second.counters.as_dict()
    assert result_fingerprint(first) == result_fingerprint(second)


def test_parallel_results_identical_to_serial():
    specs = tiny_specs()
    serial = run_many(specs, workers=1)
    parallel = run_many(specs, workers=2)
    assert [o.spec.tag for o in parallel] == [s.tag for s in specs]  # ordering
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert result_fingerprint(s.unwrap()) == result_fingerprint(p.unwrap())


def test_failed_run_is_captured_not_fatal():
    specs = [
        tiny_specs()[0],
        RunSpec.make("no-such-workload", ProtocolPolicy("AD")),
        tiny_specs()[2],
    ]
    outcomes = run_many(specs, workers=2)
    assert outcomes[0].ok and outcomes[2].ok
    failed = outcomes[1]
    assert not failed.ok
    assert failed.error.exc_type == "ValueError"
    assert "no-such-workload" in failed.error.message
    with pytest.raises(RuntimeError, match="no-such-workload"):
        failed.unwrap()


def test_run_error_carries_coordinates_and_dump_across_processes():
    """A livelocked run in a worker process must come back with its sweep
    coordinates and the full diagnostic dump, not just a string."""
    from repro.machine.config import MachineConfig

    spec = RunSpec.make(
        "migratory-counters",
        ProtocolPolicy("AD"),
        preset="tiny",
        # A zero-width watchdog window trips on the first event that
        # fires after t=0 with no retirement — a guaranteed LivelockError.
        config=MachineConfig.dash_default(watchdog_window=0),
        seed=5,
    )
    outcomes = run_many([spec, spec], workers=2)
    for outcome in outcomes:
        assert not outcome.ok
        err = outcome.error
        assert err.exc_type == "LivelockError"
        assert err.workload == "migratory-counters"
        assert err.policy == "AD"
        assert err.seed == 5
        assert "migratory-counters/AD seed=5" in str(err)
        dump = err.diagnostic_dump()
        assert dump is not None and dump.reason == "livelock"
        json.dumps(err.dump)  # the wire form is pure JSON


def test_run_many_empty_and_single_spec():
    assert run_many([], workers=8) == []
    [only] = run_many([tiny_specs()[0]], workers=8)  # forks one worker
    assert only.ok


def test_workload_registered_after_a_sweep_runs_in_the_next(monkeypatch):
    """Each run_many call forks its own workers, so they know every
    workload registered before the call, not only those registered
    before some earlier sweep."""
    from repro.workloads import WORKLOADS
    from repro.workloads.synthetic import MigratoryCounters

    assert all(o.ok for o in run_many(tiny_specs()[:2], workers=2))
    monkeypatch.setitem(WORKLOADS, "late", MigratoryCounters)
    late = RunSpec.make("late", ProtocolPolicy("AD"), preset="tiny",
                        iterations=4)
    outcomes = run_many([late, tiny_specs()[0]], workers=2)
    assert all(o.ok for o in outcomes), [str(o.error) for o in outcomes]


def test_run_pairs_rejects_odd_batch():
    with pytest.raises(ValueError, match="even"):
        run_pairs(tiny_specs()[:3])


def test_compare_protocols_workers_matches_serial():
    serial = compare_protocols("migratory-counters", iterations=6)
    fanned = compare_protocols("migratory-counters", iterations=6, workers=2)
    assert result_fingerprint(serial.wi) == result_fingerprint(fanned.wi)
    assert result_fingerprint(serial.ad) == result_fingerprint(fanned.ad)


def _empty_result(execution_time=0):
    return RunResult(
        execution_time=execution_time,
        breakdowns=[],
        counters=Counters(),
        network_bits=0,
        network_messages=0,
        bits_by_kind={},
        count_by_kind={},
        events_processed=0,
        policy_name="W-I",
        consistency_name="SC",
    )


def test_execution_time_ratio_nan_for_empty_runs():
    empty_both = ProtocolComparison(
        workload="x", wi=_empty_result(), ad=_empty_result()
    )
    assert math.isnan(empty_both.execution_time_ratio)
    empty_ad = ProtocolComparison(
        workload="x", wi=_empty_result(100), ad=_empty_result()
    )
    assert math.isnan(empty_ad.execution_time_ratio)
    real = ProtocolComparison(
        workload="x", wi=_empty_result(150), ad=_empty_result(100)
    )
    assert real.execution_time_ratio == pytest.approx(1.5)


def test_freeze_value_round_trips_and_ignores_insertion_order():
    nested = {"outer": {"b": [1, 2], "a": {3, 1}}, "plain": 5}
    permuted = {"plain": 5, "outer": {"a": {1, 3}, "b": [1, 2]}}
    assert freeze_value(nested) == freeze_value(permuted)
    hash(freeze_value(nested))  # the whole point: frozen form is hashable
    thawed = thaw_value(freeze_value(nested))
    assert thawed == {"outer": {"b": (1, 2), "a": {3, 1}}, "plain": 5}


def test_runspec_make_rejects_unknown_presets():
    with pytest.raises(ValueError, match="unknown preset 'tnyi'; choose from "
                                         "tiny, default, paper"):
        RunSpec.make("water", ProtocolPolicy("AD"), preset="tnyi")


def test_runspec_with_dict_overrides_stays_hashable():
    spec = RunSpec.make(
        "migratory-counters", ProtocolPolicy("AD"),
        knobs={"beta": 2, "alpha": 1}, order=[3, 1], iterations=6,
    )
    hash(spec)  # must not raise (the RunSpec hashability contract)
    assert spec.override_kwargs() == {
        "knobs": {"beta": 2, "alpha": 1}, "order": (3, 1), "iterations": 6,
    }

