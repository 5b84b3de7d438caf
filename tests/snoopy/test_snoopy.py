"""Tests of the bus-based snoopy variant (paper Section 6)."""

import pytest

from repro.core.policy import ProtocolPolicy
from repro.cpu.ops import Barrier, Compute, Lock, Read, Unlock, Write
from repro.memory.cache import CacheState
from repro.snoopy import BusOp, BusTiming, SnoopyConfig, SnoopyMachine, transaction_bits


def idle():
    return iter(())


def machine(adaptive=False, procs=4, **overrides):
    policy = ProtocolPolicy("AD" if adaptive else "W-I")
    if "policy" in overrides:
        policy = overrides.pop("policy")
    return SnoopyMachine(
        SnoopyConfig(num_processors=procs, policy=policy, **overrides)
    )


def seq(m, *steps):
    """Ordered per-step ops via barriers (same helper style as directory tests)."""
    n = m.config.num_processors
    programs = {p: [] for p in range(n)}
    for index, (node, op) in enumerate(steps):
        for p in range(n):
            if p == node:
                programs[p].append(op)
            programs[p].append(Barrier(index))
    return m.run([iter(programs[p]) for p in range(n)])


def test_bus_timing_durations():
    t = BusTiming()
    assert t.duration(BusOp.UPGR, False) == 4
    assert t.duration(BusOp.RD, False) == 4 + 12
    assert t.duration(BusOp.RD, True) == 4 + 6
    assert t.duration(BusOp.WB, True) == 4 + 6


def test_transaction_bits():
    assert transaction_bits(BusOp.UPGR) == 40
    assert transaction_bits(BusOp.RD) == 168
    assert transaction_bits(BusOp.WB) == 168


def test_read_then_hit():
    m = machine()
    result = seq(m, (0, Read(0)), (0, Read(0)))
    assert result.counter("read_misses") == 1
    assert result.counter("read_hits") == 1
    assert result.bus_transactions == 1


def test_write_invalidates_sharers_on_bus():
    m = machine()
    result = seq(m, (0, Read(0)), (1, Read(0)), (2, Write(0)))
    assert result.counter("invalidations_sent") == 2
    assert m.caches[0].cache.lookup(0) is None
    assert m.caches[1].cache.lookup(0) is None
    assert m.caches[2].cache.lookup(0).state is CacheState.DIRTY


def test_dirty_snoop_supplies_and_downgrades():
    m = machine()
    seq(m, (0, Write(0)), (1, Read(0)))
    assert m.caches[0].cache.lookup(0).state is CacheState.SHARED
    assert m.caches[1].cache.lookup(0).state is CacheState.SHARED


def test_migratory_nomination_on_bus():
    m = machine(adaptive=True)
    result = seq(
        m, (0, Read(0)), (0, Write(0)), (1, Read(0)), (1, Write(0)), (2, Read(0))
    )
    assert result.counter("nominations") == 1
    assert result.counter("migratory_reads") == 1
    assert m.caches[2].cache.lookup(0).state is CacheState.MIGRATING
    assert m.caches[1].cache.lookup(0) is None


def test_migratory_write_hits_locally_on_bus():
    m = machine(adaptive=True)
    result = seq(
        m,
        (0, Read(0)), (0, Write(0)),
        (1, Read(0)), (1, Write(0)),
        (2, Read(0)), (2, Write(0)),
    )
    assert result.counter("migrating_promotions") == 1
    # Only the two pre-nomination upgrades reached the bus as rx requests.
    assert result.counter("rxq_received") == 2


def test_nomig_reverts_on_bus():
    m = machine(adaptive=True)
    result = seq(
        m,
        (0, Read(0)), (0, Write(0)),
        (1, Read(0)), (1, Write(0)),
        (2, Read(0)),
        (3, Read(0)),
    )
    assert result.counter("nomig_reverts") == 1
    assert m.caches[2].cache.lookup(0).state is CacheState.SHARED
    assert m.caches[3].cache.lookup(0).state is CacheState.SHARED


def test_producer_consumer_not_nominated_on_bus():
    m = machine(adaptive=True)
    result = seq(
        m,
        (0, Write(0)), (1, Read(0)),
        (0, Write(0)), (1, Read(0)),
        (0, Write(0)),
    )
    assert result.counter("nominations") == 0


def test_locked_counter_coherent_on_bus():
    for adaptive in (False, True):
        m = machine(adaptive=adaptive, procs=8)

        def incrementer():
            for _ in range(6):
                yield Lock(0)
                yield Read(4096)
                yield Write(4096)
                yield Unlock(0)
                yield Compute(3)

        m.run([incrementer() for _ in range(8)])
        assert m.checker.latest[4096 // 16] == 48


def test_adaptive_reduces_bus_traffic():
    """The Section 6 claim: on a bus, AD's payoff is traffic reduction."""
    results = {}
    for adaptive in (False, True):
        m = machine(adaptive=adaptive, procs=8)

        def incrementer():
            for _ in range(12):
                yield Lock(0)
                yield Read(4096)
                yield Write(4096)
                yield Unlock(0)

        results[adaptive] = m.run([incrementer() for _ in range(8)])
    wi, ad = results[False], results[True]
    # Per migratory episode the bus saves the whole upgrade transaction:
    # ~19% of the bits (208 -> 168) and ~29% of the occupancy (14 -> 10
    # pclocks), and half the transactions.
    assert ad.bus_bits < wi.bus_bits * 0.9
    assert ad.bus_transactions < wi.bus_transactions * 0.6
    wi_busy = wi.bus_utilization * wi.execution_time
    ad_busy = ad.bus_utilization * ad.execution_time
    assert ad_busy < wi_busy * 0.85
    assert ad.execution_time <= wi.execution_time


def test_eviction_writes_back_on_bus():
    m = machine(procs=2, cache_size=256)  # 16 frames

    def writer():
        for i in range(32):
            yield Write(i * 16)
        yield Read(0)

    result = m.run([writer(), idle()])
    assert result.counter("writebacks") >= 16
    assert m.checker.latest  # versions recorded


def test_wrong_program_count_rejected():
    m = machine(procs=4)
    with pytest.raises(ValueError):
        m.run([idle()])


@pytest.mark.parametrize("name", ["MESI", "Dragon", "Hybrid"])
def test_protocols_without_a_bus_flow_are_refused(name):
    """The bus has no E state and no update flow: the machine would run
    W-I under the name MESI, Dragon or Hybrid."""
    with pytest.raises(ValueError, match="runs W-I, AD, AD-RXQ, AD-NONOMIG"):
        machine(policy=ProtocolPolicy(name))


def test_ad_ablations_switch_the_bus_detector():
    """AD-RXQ demotes a migratory block on a read-exclusive; AD-NONOMIG
    keeps a read-only block migratory where AD reverts it."""
    ops = [(0, Read(0x200)), (0, Write(0x200)), (1, Read(0x200)),
           (1, Write(0x200)), (2, Write(0x200))]
    results = {
        name: seq(machine(policy=ProtocolPolicy(name)), *ops)
        for name in ("AD", "AD-RXQ")
    }
    assert results["AD"].counter("nominations") == 1
    assert results["AD"].counter("rxq_demotions") == 0
    assert results["AD-RXQ"].counter("rxq_demotions") == 1
    reads = [(0, Read(0x300)), (0, Write(0x300)), (1, Read(0x300)),
             (1, Write(0x300)), (2, Read(0x300)), (3, Read(0x300))]
    reverts = {
        name: seq(machine(policy=ProtocolPolicy(name)), *reads)
        for name in ("AD", "AD-NONOMIG")
    }
    assert reverts["AD"].counter("nomig_reverts") == 1
    assert reverts["AD-NONOMIG"].counter("nomig_reverts") == 0


def test_task_farm_bus_traffic_reduction():
    """Section 6: "the protocol is applicable to bus-based systems ... a
    primary concern is to reduce network traffic".  Eight processors
    update six lock-protected records on one snooping bus."""
    def worker(me):
        for i in range(40):
            which = (me + i) % 6
            yield Lock(which)
            yield Read(8192 + which * 16)
            yield Compute(5)
            yield Write(8192 + which * 16)
            yield Unlock(which)

    results = {}
    for name, cfg in (
        ("wi", SnoopyConfig(num_processors=8, check_coherence=False)),
        ("ad", SnoopyConfig(num_processors=8,
                            policy=ProtocolPolicy("AD"),
                            check_coherence=False)),
    ):
        results[name] = SnoopyMachine(cfg).run([worker(p) for p in range(8)])
    wi, ad = results["wi"], results["ad"]

    def busy(result):
        return result.bus_utilization * result.execution_time

    # AD halves the bus transactions of each migratory episode...
    assert ad.bus_transactions < wi.bus_transactions * 0.65
    # ...reducing occupancy (the bus system's scarce resource) and time.
    assert busy(ad) < busy(wi) * 0.85
    assert ad.execution_time < wi.execution_time
    # Detection stays exact: no spurious nominations beyond the records.
    assert ad.counter("nominations") <= 6 * 2
