"""Targeted tests of the protocol's transient/race machinery.

Each test engineers one specific race and asserts both the observable
outcome and that the intended mechanism (NAK, deferral, consume-once,
MIack lock) actually fired.
"""

import pytest

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.coherence.messages import MsgKind
from repro.coherence.states import DirState
from repro.consistency import WEAK_ORDERING
from repro.cpu.ops import Barrier, Compute, Read, Write
from repro.memory.cache import CacheState

ADDR = 8192  # home node 2


def build(adaptive=False, **overrides):
    policy = ProtocolPolicy("AD" if adaptive else "W-I")
    return Machine(MachineConfig.dash_default(policy=policy, **overrides))


def run(machine, per_node):
    programs = [iter(per_node.get(n, [])) for n in range(machine.config.num_nodes)]
    return machine.run(programs)


def test_nak_on_forward_to_evicted_owner():
    """Owner evicts (writeback in flight) while home forwards a read to it:
    the owner NAKs, home retries after the writeback lands."""
    machine = build(cache_size=256)  # 16 frames
    conflict = ADDR + 256 * 16      # same frame as ADDR

    per_node = {
        0: [Write(ADDR), Barrier(0),
            # Evict ADDR by touching the conflicting block; the Wb and
            # node 1's Rr race to home / to us.
            Read(conflict), Barrier(1)],
        1: [Barrier(0), Read(ADDR), Barrier(1)],
    }
    for n in range(16):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    result = run(machine, per_node)
    # Whatever the interleaving, node 1 got correct data.
    line = machine.caches[1].cache.lookup(ADDR // 16)
    assert line is not None
    assert line.version == machine.checker.latest[ADDR // 16]


def test_writeback_race_with_own_refetch():
    """A processor evicts a dirty block and immediately re-writes it: home
    sees its own recorded owner requesting — it must wait for the Wb."""
    machine = build(cache_size=256)
    conflict = ADDR + 256 * 16
    per_node = {
        0: [Write(ADDR), Read(conflict), Write(ADDR)],
    }
    result = run(machine, per_node)
    block = ADDR // 16
    assert machine.checker.latest[block] == 2
    entry = machine.directories[2].entries[block]
    assert entry.state is DirState.DIRTY_REMOTE
    assert entry.owner == 0
    assert result.counter("writebacks") >= 1


def test_consume_once_fill_on_invalidation_race():
    """Under WO, a read fill racing an invalidation delivers its value but
    must not install a stale line."""
    machine = build(consistency=WEAK_ORDERING)
    # Node 0 and 1 both share; node 0 re-reads while node 1 writes.
    per_node = {
        0: [Read(ADDR), Barrier(0), Read(ADDR), Barrier(1)],
        1: [Read(ADDR), Barrier(0), Write(ADDR), Barrier(1)],
    }
    for n in range(16):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    run(machine, per_node)
    # Node 1 owns the only valid copy; node 0 either reinstalled a fresh
    # copy (ordered after the write) or holds nothing.
    line0 = machine.caches[0].cache.lookup(ADDR // 16)
    latest = machine.checker.latest[ADDR // 16]
    if line0 is not None:
        assert line0.version == latest


def test_miack_lock_blocks_replacement():
    """A migrated line cannot be evicted before home's MIack; the eviction
    (and the conflicting fill) completes afterwards."""
    machine = build(adaptive=True, cache_size=256)
    conflict = ADDR + 256 * 16
    per_node = {
        0: [Read(ADDR), Write(ADDR), Barrier(0), Barrier(1), Barrier(2)],
        1: [Barrier(0), Read(ADDR), Write(ADDR), Barrier(1), Barrier(2)],
        3: [Barrier(0), Barrier(1),
            # Migratory read immediately followed by a conflicting access
            # that wants the frame back.
            Read(ADDR), Read(conflict), Barrier(2)],
    }
    for n in range(16):
        per_node.setdefault(n, [Barrier(0), Barrier(1), Barrier(2)])
    run(machine, per_node)
    cache3 = machine.caches[3].cache
    # The conflicting block displaced the migrated line in the end.
    assert cache3.lookup(conflict // 16) is not None
    # The migrated line was written back, keeping its nomination.
    entry = machine.directories[2].entries[ADDR // 16]
    assert entry.state in (DirState.MIGRATORY_UNCACHED, DirState.MIGRATORY_DIRTY)


def test_deferred_forward_behind_pending_fill():
    """Home forwards to a cache whose own fill is still in flight: the
    forward is deferred, then served from the installed line."""
    machine = build()
    per_node = {
        0: [Write(ADDR), Barrier(0), Barrier(1)],
        1: [Barrier(0), Write(ADDR), Barrier(1)],     # takes ownership
        3: [Barrier(0), Compute(1), Read(ADDR), Barrier(1)],  # read races 1's fill
    }
    for n in range(16):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    run(machine, per_node)
    latest = machine.checker.latest[ADDR // 16]
    line3 = machine.caches[3].cache.lookup(ADDR // 16)
    assert line3 is not None and line3.version == latest


def test_xfer_miack_prevents_directory_corruption():
    """The model-checker-found race: new owner (via FwdRxq) evicts
    immediately; its writeback must not overtake the Xfer at home."""
    machine = build(cache_size=256)
    conflict = ADDR + 256 * 16
    per_node = {
        0: [Write(ADDR), Barrier(0), Barrier(1)],
        1: [Barrier(0), Write(ADDR), Read(conflict), Barrier(1)],
    }
    for n in range(16):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    result = run(machine, per_node)
    block = ADDR // 16
    entry = machine.directories[2].entries[block]
    assert entry.state in (DirState.UNCACHED, DirState.DIRTY_REMOTE)
    assert machine.checker.latest[block] == 2
    # The transfer produced a MIack (the generalization of Figure 3).
    assert machine.transport.count_of(MsgKind.MIACK) >= 1


def test_upgrade_loses_race_and_gets_full_fill():
    """Two sharers upgrade simultaneously: one wins, the other is
    invalidated mid-upgrade and receives a full exclusive fill."""
    machine = build()
    per_node = {
        0: [Read(ADDR), Barrier(0), Write(ADDR), Barrier(1)],
        1: [Read(ADDR), Barrier(0), Write(ADDR), Barrier(1)],
    }
    for n in range(16):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    run(machine, per_node)
    block = ADDR // 16
    assert machine.checker.latest[block] == 2  # both writes committed
    entry = machine.directories[2].entries[block]
    owner_line = machine.caches[entry.owner].cache.lookup(block)
    assert owner_line.state is CacheState.DIRTY
    assert owner_line.version == 2


def test_stale_presence_invalidation_acked():
    """A silently evicted sharer still receives (and must ack) the Inv."""
    machine = build(cache_size=256)
    conflict = ADDR + 256 * 16
    per_node = {
        0: [Read(ADDR), Barrier(0), Read(conflict), Barrier(1), Barrier(2)],
        1: [Barrier(0), Barrier(1), Write(ADDR), Barrier(2)],
    }
    for n in range(16):
        per_node.setdefault(n, [Barrier(0), Barrier(1), Barrier(2)])
    result = run(machine, per_node)
    # Node 0's copy was already gone, yet the protocol completed: the
    # stale Inv was acknowledged without a line.
    assert result.counter("invalidations_sent") >= 1
    assert result.counter("iacks_sent") >= 1
    assert machine.checker.latest[ADDR // 16] == 1
