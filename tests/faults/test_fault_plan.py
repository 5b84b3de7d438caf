"""Fault-plan determinism and correctness-preservation tests.

The acceptance bar for the whole subsystem: faults perturb *timing*,
never *results* semantics — a disabled plan is byte-identical to no
plan, an enabled plan is reproducible from ``(seed, intensity)``, and a
perturbed machine still finishes with the coherence checker clean.
"""

import pytest

from repro import FaultConfig, MachineConfig, ProtocolPolicy
from repro.experiments.parallel import result_fingerprint
from repro.experiments.runner import run_workload
from repro.faults.plan import DELAYS, FORCED_NAKS, REORDERS, FaultPlan


def _run(faults=None, adaptive=False, watchdog=200_000, seed=42):
    policy = ProtocolPolicy("AD" if adaptive else "W-I")
    config = MachineConfig.dash_default(faults=faults, watchdog_window=watchdog)
    return run_workload(
        "migratory-counters", policy, preset="tiny", config=config, seed=seed
    )


def test_disabled_faults_are_byte_identical():
    """faults=None, an intensity-0 config, and no watchdog all agree."""
    baseline = result_fingerprint(_run(faults=None, watchdog=None))
    with_watchdog = result_fingerprint(_run(faults=None))
    zero_intensity = result_fingerprint(_run(faults=FaultConfig(seed=9)))
    assert with_watchdog == baseline
    assert zero_intensity == baseline


def test_same_seed_and_intensity_reproduce_exactly():
    cfg = FaultConfig(seed=7, intensity=0.6)
    first = _run(faults=cfg)
    second = _run(faults=cfg)
    assert result_fingerprint(first) == result_fingerprint(second)
    # The plan actually fired, so this is a non-trivial equality.
    assert first.counter(DELAYS) > 0


def test_different_seed_changes_the_schedule():
    one = _run(faults=FaultConfig(seed=1, intensity=0.6))
    two = _run(faults=FaultConfig(seed=2, intensity=0.6))
    assert result_fingerprint(one) != result_fingerprint(two)


@pytest.mark.parametrize("adaptive", [False, True])
def test_full_intensity_completes_clean(adaptive):
    """Intensity 1.0 with the checker on: every fault type fires, the
    run finishes, and no invariant trips (faults are legal schedules)."""
    result = _run(faults=FaultConfig(seed=5, intensity=1.0), adaptive=adaptive)
    assert result.execution_time > 0
    assert result.counter(DELAYS) > 0
    assert result.counter(REORDERS) > 0
    assert result.counter(FORCED_NAKS) > 0


def test_node_slowdowns_are_pure_functions_of_the_seed():
    cfg = FaultConfig(seed=3, intensity=1.0, slow_node_fraction=1.0, max_slowdown=3)
    a, b = FaultPlan(cfg), FaultPlan(cfg)
    bus = [a.bus_slowdown(n) for n in range(16)]
    mem = [a.memory_slowdown(n) for n in range(16)]
    assert bus == [b.bus_slowdown(n) for n in range(16)]
    assert mem == [b.memory_slowdown(n) for n in range(16)]
    # fraction 1.0 slows every node; the bound is respected.
    assert all(2 <= s <= 3 for s in bus)
    assert all(2 <= s <= 3 for s in mem)


def test_pinned_knob_activates_only_that_fault():
    cfg = FaultConfig(seed=1, nak_fraction=1.0)
    assert cfg.active
    plan = FaultPlan(cfg)
    assert plan.delay_fraction == 0
    assert plan.reorder_fraction == 0
    assert plan.force_nak() is True
