"""End-to-end smoke tests: tiny programs through the whole machine."""

import pytest

from repro import (
    Barrier,
    Compute,
    Lock,
    Machine,
    MachineConfig,
    ProtocolPolicy,
    Read,
    Unlock,
    Write,
)


def idle():
    return iter(())


def single(node_ops):
    """Programs list: ops for node 0, idle elsewhere."""
    machine = Machine(MachineConfig.dash_default())
    programs = [iter(node_ops)] + [idle() for _ in range(15)]
    return machine, programs


def test_empty_programs_complete():
    machine = Machine(MachineConfig.dash_default())
    result = machine.run([idle() for _ in range(16)])
    assert result.execution_time == 0


def test_single_read_local_home():
    # Address 0 lives on node 0 (round-robin pages): a pure local fill.
    machine, programs = single([Read(0)])
    result = machine.run(programs)
    assert result.counter("read_misses") == 1
    assert result.counter("read_hits") == 0
    assert result.network_messages == 0  # never crossed the mesh
    assert result.execution_time > 1


def test_read_then_hit():
    machine, programs = single([Read(0), Read(0), Read(4)])
    result = machine.run(programs)
    assert result.counter("read_misses") == 1
    assert result.counter("read_hits") == 2  # same line: offsets 0 and 4


def test_write_then_read_hit():
    machine, programs = single([Write(0), Read(0), Write(0)])
    result = machine.run(programs)
    assert result.counter("write_misses") == 1
    assert result.counter("read_hits") == 1
    assert result.counter("write_hits") == 1


def test_remote_read_crosses_mesh():
    # Page 1 (addresses 4096..8191) is homed on node 1.
    machine, programs = single([Read(4096)])
    result = machine.run(programs)
    assert result.counter("read_misses") == 1
    assert result.network_messages == 2  # Rr there, Rp back


def test_two_readers_share():
    machine = Machine(MachineConfig.dash_default())
    programs = [iter([Read(0)]), iter([Read(0)])] + [idle() for _ in range(14)]
    result = machine.run(programs)
    assert result.counter("read_misses") == 2
    assert result.counter("invalidations_sent") == 0


def test_write_invalidates_sharers():
    machine = Machine(MachineConfig.dash_default())
    # Node 1 and 2 read; node 3 writes after a barrier.
    def reader():
        yield Read(0)
        yield Barrier(0)
        yield Barrier(1)

    def writer():
        yield Barrier(0)
        yield Write(0)
        yield Barrier(1)

    def others():
        yield Barrier(0)
        yield Barrier(1)

    programs = [others(), reader(), reader(), writer()] + [others() for _ in range(12)]
    result = machine.run(programs)
    assert result.counter("invalidations_sent") == 2
    assert result.counter("iacks_sent") == 2


def test_read_after_remote_write_forwards():
    machine = Machine(MachineConfig.dash_default())

    def writer():
        yield Write(4096)
        yield Barrier(0)
        yield Barrier(1)

    def reader():
        yield Barrier(0)
        yield Read(4096)
        yield Barrier(1)

    def others():
        yield Barrier(0)
        yield Barrier(1)

    programs = [writer(), reader()] + [others() for _ in range(14)]
    result = machine.run(programs)
    # The read to a Dirty-Remote block is forwarded: Sw revalidates home.
    assert result.count_by_kind.get("FwdRr", 0) == 1
    assert result.count_by_kind.get("Sw", 0) == 1


def test_lock_protected_counter_is_coherent():
    """The classic migratory pattern: N processors increment under a lock."""
    machine = Machine(MachineConfig.dash_default())
    increments_per_proc = 5

    def incrementer():
        for _ in range(increments_per_proc):
            yield Lock(0)
            yield Read(8192)
            yield Write(8192)
            yield Unlock(0)

    result = machine.run([incrementer() for _ in range(16)])
    block = 8192 // 16
    assert machine.checker.latest[block] == 16 * increments_per_proc


def test_adaptive_lock_counter_is_coherent_and_detects():
    config = MachineConfig.dash_default(policy=ProtocolPolicy("AD"))
    machine = Machine(config)

    def incrementer():
        for _ in range(5):
            yield Lock(0)
            yield Read(8192)
            yield Write(8192)
            yield Unlock(0)

    result = machine.run([incrementer() for _ in range(16)])
    block = 8192 // 16
    assert machine.checker.latest[block] == 80
    assert result.counter("nominations") >= 1
    assert result.counter("migrating_promotions") > 0


def test_adaptive_reduces_rxq_on_migratory_pattern():
    def incrementer():
        for _ in range(10):
            yield Lock(0)
            yield Read(8192)
            yield Compute(3)
            yield Write(8192)
            yield Unlock(0)

    results = {}
    for policy in (ProtocolPolicy("W-I"), ProtocolPolicy("AD")):
        machine = Machine(MachineConfig.dash_default(policy=policy))
        results[policy.name] = machine.run([incrementer() for _ in range(16)])
    assert results["AD"].counter("rxq_received") < results["W-I"].counter("rxq_received") / 2
    assert results["AD"].network_bits < results["W-I"].network_bits
    assert results["AD"].execution_time <= results["W-I"].execution_time


def test_capacity_eviction_writes_back():
    # 4KB cache = 256 lines; touch 512 distinct lines with writes, then
    # re-read the first: it must have been written back and refetched.
    config = MachineConfig.dash_default(cache_size=4 * 1024)
    machine = Machine(config)

    def prog():
        for i in range(512):
            yield Write(i * 16)
        yield Read(0)

    programs = [prog()] + [idle() for _ in range(15)]
    result = machine.run(programs)
    assert result.counter("writebacks") >= 256
    assert result.counter("replacement_misses") >= 1
