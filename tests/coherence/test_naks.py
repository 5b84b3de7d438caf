"""Deterministic regression tests for the NAK retry machinery.

``FaultConfig(nak_fraction=1.0)`` makes *every* forward hit the owner as
if it had just evicted the line (spurious writeback + NAK), so the
directory's ``_on_nak`` re-queue/await-writeback/retry path runs on
every remote access instead of only in rare eviction races.
"""

from repro import FaultConfig, Machine, MachineConfig, ProtocolPolicy
from repro.cpu.ops import Barrier, Read, Write
from repro.faults.plan import FORCED_NAKS
from repro.memory.cache import CacheState

ADDR = 8192  # home node 2
BLOCK = ADDR // 16


def build(adaptive=False):
    policy = ProtocolPolicy("AD" if adaptive else "W-I")
    return Machine(
        MachineConfig.dash_default(
            policy=policy,
            faults=FaultConfig(seed=11, nak_fraction=1.0),
            watchdog_window=100_000,  # a retry loop must not hang the test
        )
    )


def run(machine, per_node):
    for n in range(machine.config.num_nodes):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    return machine.run(
        [iter(per_node[n]) for n in range(machine.config.num_nodes)]
    )


def test_forced_nak_on_read_forward_retries_from_home():
    machine = build()
    per_node = {
        0: [Write(ADDR), Barrier(0), Barrier(1)],
        1: [Barrier(0), Read(ADDR), Barrier(1)],
    }
    result = run(machine, per_node)
    # The forward was NAKed after a spurious writeback, and the retry
    # served the (now home-valid) line anyway.
    assert result.counter(FORCED_NAKS) >= 1
    assert result.counter("naks") >= 1
    assert result.counter("writebacks") >= 1
    line1 = machine.caches[1].cache.lookup(BLOCK)
    assert line1 is not None
    assert line1.version == machine.checker.latest[BLOCK] == 1
    # The old owner really lost its copy.
    assert machine.caches[0].cache.lookup(BLOCK) is None


def test_forced_nak_on_write_forward_still_transfers_ownership():
    machine = build()
    per_node = {
        0: [Write(ADDR), Barrier(0), Barrier(1)],
        1: [Barrier(0), Write(ADDR), Barrier(1)],
    }
    result = run(machine, per_node)
    assert result.counter(FORCED_NAKS) >= 1
    assert machine.checker.latest[BLOCK] == 2
    line1 = machine.caches[1].cache.lookup(BLOCK)
    assert line1 is not None
    assert line1.state is CacheState.DIRTY
    assert line1.version == 2


def test_forced_nak_under_adaptive_migration_chain():
    """Hand-over-hand migratory sharing with every forward NAKed: each
    hop falls back to the home retry path and the chain still commits
    every write in order."""
    machine = build(adaptive=True)
    per_node = {
        0: [Read(ADDR), Write(ADDR), Barrier(0), Barrier(1), Barrier(2)],
        1: [Barrier(0), Read(ADDR), Write(ADDR), Barrier(1), Barrier(2)],
        3: [Barrier(0), Barrier(1), Read(ADDR), Write(ADDR), Barrier(2)],
    }
    for n in range(machine.config.num_nodes):
        per_node.setdefault(n, [Barrier(0), Barrier(1), Barrier(2)])
    result = machine.run(
        [iter(per_node[n]) for n in range(machine.config.num_nodes)]
    )
    assert result.counter(FORCED_NAKS) >= 1
    assert machine.checker.latest[BLOCK] == 3
