"""Tests for the consistency-model strategy objects."""

import pytest

from repro.consistency import (
    SEQUENTIAL_CONSISTENCY,
    WEAK_ORDERING,
    model_by_name,
)


def test_sc_blocks_writes_no_fence():
    assert SEQUENTIAL_CONSISTENCY.write_blocks
    assert not SEQUENTIAL_CONSISTENCY.fence_at_sync


def test_wo_overlaps_writes_with_fences():
    assert not WEAK_ORDERING.write_blocks
    assert WEAK_ORDERING.fence_at_sync


def test_lookup_by_name_case_insensitive():
    assert model_by_name("sc") is SEQUENTIAL_CONSISTENCY
    assert model_by_name("WO") is WEAK_ORDERING


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown consistency model"):
        model_by_name("TSO")


def test_release_consistency_fences_only_at_release():
    from repro.consistency import RELEASE_CONSISTENCY

    assert not RELEASE_CONSISTENCY.write_blocks
    assert not RELEASE_CONSISTENCY.fence_at_acquire
    assert RELEASE_CONSISTENCY.fence_at_release
    assert model_by_name("rc") is RELEASE_CONSISTENCY


def test_rc_acquire_does_not_wait_for_outstanding_writes():
    """Under RC a lock acquire proceeds past outstanding writes; under WO
    it fences.  The RC run must spend less (or equal) sync time."""
    from repro import Machine, MachineConfig
    from repro.consistency import RELEASE_CONSISTENCY, WEAK_ORDERING
    from repro.cpu.ops import Lock, Unlock, Write

    def prog():
        yield Write(4096)   # remote write, long latency
        yield Lock(0)       # acquire: RC does not wait, WO does
        yield Unlock(0)     # release: both wait

    times = {}
    for model in (WEAK_ORDERING, RELEASE_CONSISTENCY):
        machine = Machine(MachineConfig.dash_default(consistency=model))
        programs = [iter(prog())] + [iter(()) for _ in range(15)]
        machine.run(programs)
        times[model.name] = machine.processors[0].breakdown.sync_stall
    assert times["RC"] <= times["WO"]


def test_rc_coherent_under_locked_increments():
    from repro import Machine, MachineConfig, ProtocolPolicy
    from repro.consistency import RELEASE_CONSISTENCY
    from repro.cpu.ops import Lock, Read, Unlock, Write

    machine = Machine(
        MachineConfig.dash_default(
            policy=ProtocolPolicy("AD"),
            consistency=RELEASE_CONSISTENCY,
        )
    )

    def incrementer():
        for _ in range(6):
            yield Lock(0)
            yield Read(8192)
            yield Write(8192)
            yield Unlock(0)

    machine.run([incrementer() for _ in range(16)])
    assert machine.checker.latest[8192 // 16] == 96
