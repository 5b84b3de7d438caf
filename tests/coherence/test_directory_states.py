"""Timed directory state-transition tests (Figures 2-4 of the paper).

These run scripted programs through the full machine and inspect the
resulting directory and cache-line states.  Barriers order the accesses
of different processors.
"""

import pytest

from repro.coherence.states import DirState
from repro.cpu.ops import Barrier, Lock, Read, Unlock, Write
from repro.memory.cache import CacheState

ADDR = 8192  # page 2 -> home node 2; requesters use other nodes.
HOME = 2


def seq(machine_helpers, adaptive, *steps, **overrides):
    """Run ordered steps [(node, op), ...] separated by barriers."""
    build, run = machine_helpers.build, machine_helpers.run
    machine = build(adaptive=adaptive, **overrides)
    num = machine.config.num_nodes
    per_node = {n: [] for n in range(num)}
    for index, (node, op) in enumerate(steps):
        for n in range(num):
            if n == node:
                per_node[n].append(op)
            per_node[n].append(Barrier(index))
    run(machine, per_node)
    return machine


def test_uncached_to_shared_remote(helpers):
    m = seq(helpers, False, (0, Read(ADDR)))
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.SHARED_REMOTE
    assert e.sharers == {0}
    assert helpers.line(m, 0, ADDR).state is CacheState.SHARED


def test_shared_accumulates_sharers(helpers):
    m = seq(helpers, False, (0, Read(ADDR)), (1, Read(ADDR)), (3, Read(ADDR)))
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.SHARED_REMOTE
    assert e.sharers == {0, 1, 3}


def test_write_moves_to_dirty_remote(helpers):
    m = seq(helpers, False, (0, Write(ADDR)))
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE
    assert e.owner == 0
    assert helpers.line(m, 0, ADDR).state is CacheState.DIRTY


def test_write_invalidates_all_sharers(helpers):
    m = seq(
        helpers, False,
        (0, Read(ADDR)), (1, Read(ADDR)), (3, Read(ADDR)), (4, Write(ADDR)),
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE
    assert e.owner == 4
    for node in (0, 1, 3):
        assert helpers.line(m, node, ADDR) is None
    assert m.counters.get("invalidations_sent") == 3


def test_read_of_dirty_remote_downgrades_owner(helpers):
    """Figure 2(a): Rr forwarded; owner answers Rp + Sw; both end Shared."""
    m = seq(helpers, False, (0, Write(ADDR)), (1, Read(ADDR)))
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.SHARED_REMOTE
    assert e.sharers == {0, 1}
    assert helpers.line(m, 0, ADDR).state is CacheState.SHARED
    assert helpers.line(m, 1, ADDR).state is CacheState.SHARED


def test_rxq_to_dirty_remote_transfers_ownership(helpers):
    """Figure 2(b) dirty case: FwdRxq; ownership moves without home data."""
    m = seq(helpers, False, (0, Write(ADDR)), (1, Write(ADDR)))
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE
    assert e.owner == 1
    assert helpers.line(m, 0, ADDR) is None
    assert helpers.line(m, 1, ADDR).state is CacheState.DIRTY
    from repro.coherence.messages import MsgKind

    assert m.transport.count_of(MsgKind.FWD_RXQ) == 1
    assert m.transport.count_of(MsgKind.XFER) == 1


def test_migratory_nomination_in_timed_protocol(helpers):
    """Rr_0 Rxq_0 Rr_1 Rxq_1 nominates; node 1 holds the line Dirty."""
    m = seq(
        helpers, True,
        (0, Read(ADDR)), (0, Write(ADDR)), (1, Read(ADDR)), (1, Write(ADDR)),
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.MIGRATORY_DIRTY
    assert e.owner == 1
    assert m.counters.get("nominations") == 1


def test_migratory_read_transfers_ownership_silently(helpers):
    """After nomination, a read by a third node gets ownership (Migrating)."""
    m = seq(
        helpers, True,
        (0, Read(ADDR)), (0, Write(ADDR)),
        (1, Read(ADDR)), (1, Write(ADDR)),
        (3, Read(ADDR)),
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.MIGRATORY_DIRTY
    assert e.owner == 3
    line = helpers.line(m, 3, ADDR)
    assert line.state is CacheState.MIGRATING
    assert helpers.line(m, 1, ADDR) is None
    assert m.counters.get("migratory_reads") == 1


def test_migratory_write_is_local(helpers):
    """The owner's write after a migratory read causes no new requests."""
    m = seq(
        helpers, True,
        (0, Read(ADDR)), (0, Write(ADDR)),
        (1, Read(ADDR)), (1, Write(ADDR)),
        (3, Read(ADDR)), (3, Write(ADDR)),
    )
    assert m.counters.get("migrating_promotions") == 1
    assert helpers.line(m, 3, ADDR).state is CacheState.DIRTY
    # Only the two pre-nomination Rxqs ever reached home.
    assert m.counters.get("rxq_received") == 2


def test_nomig_reverts_read_only_pingpong(helpers):
    """Two alternating readers trigger NoMig and the block reverts."""
    m = seq(
        helpers, True,
        (0, Read(ADDR)), (0, Write(ADDR)),
        (1, Read(ADDR)), (1, Write(ADDR)),
        (3, Read(ADDR)),       # migrates to 3 (Migrating, never writes)
        (4, Read(ADDR)),       # 3 refuses: NoMig
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.SHARED_REMOTE
    assert e.sharers == {3, 4}
    assert m.counters.get("nomig_reverts") == 1
    assert helpers.line(m, 3, ADDR).state is CacheState.SHARED
    assert helpers.line(m, 4, ADDR).state is CacheState.SHARED


def test_nomig_disabled_pingpongs_forever(helpers):
    from repro.core.policy import ProtocolPolicy

    m = seq(
        helpers, True,
        (0, Read(ADDR)), (0, Write(ADDR)),
        (1, Read(ADDR)), (1, Write(ADDR)),
        (3, Read(ADDR)),
        (4, Read(ADDR)),
        (3, Read(ADDR)),
        policy=ProtocolPolicy("AD-NONOMIG"),
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.MIGRATORY_DIRTY
    assert e.owner == 3
    assert m.counters.get("nomig_reverts") == 0
    assert m.counters.get("migratory_reads") == 3


def test_rxq_on_migratory_default_stays_migratory(helpers):
    m = seq(
        helpers, True,
        (0, Read(ADDR)), (0, Write(ADDR)),
        (1, Read(ADDR)), (1, Write(ADDR)),
        (3, Write(ADDR)),      # first access is a write
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.MIGRATORY_DIRTY
    assert e.owner == 3
    assert helpers.line(m, 3, ADDR).state is CacheState.DIRTY


def test_rxq_heuristic_demotes_timed(helpers):
    from repro.core.policy import ProtocolPolicy

    m = seq(
        helpers, True,
        (0, Read(ADDR)), (0, Write(ADDR)),
        (1, Read(ADDR)), (1, Write(ADDR)),
        (3, Write(ADDR)),
        policy=ProtocolPolicy("AD-RXQ"),
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE
    assert e.owner == 3
    assert m.counters.get("rxq_demotions") == 1


def test_producer_consumer_not_nominated_timed(helpers):
    m = seq(
        helpers, True,
        (0, Write(ADDR)), (1, Read(ADDR)),
        (0, Write(ADDR)), (1, Read(ADDR)),
        (0, Write(ADDR)), (1, Read(ADDR)),
    )
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.SHARED_REMOTE
    assert m.counters.get("nominations") == 0


def test_three_sharers_not_nominated_timed(helpers):
    m = seq(
        helpers, True,
        (0, Write(ADDR)),
        (1, Read(ADDR)), (3, Read(ADDR)),
        (1, Write(ADDR)),
    )
    assert m.counters.get("nominations") == 0
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE


def test_migratory_uncached_after_owner_eviction(helpers):
    """Evicting the migratory owner's line preserves the nomination."""
    m = helpers.build(adaptive=True, cache_size=256)  # 16 lines
    conflict = ADDR + 256 * 16  # same set as ADDR in a 16-set cache
    steps = {
        0: [Read(ADDR), Write(ADDR), Barrier(0), Barrier(1), Barrier(2)],
        1: [Barrier(0), Read(ADDR), Write(ADDR), Barrier(1),
            Read(conflict), Barrier(2)],
        3: [Barrier(0), Barrier(1), Barrier(2), Read(ADDR)],
    }
    for n in range(16):
        steps.setdefault(n, [Barrier(0), Barrier(1), Barrier(2)])
    helpers.run(m, steps)
    e = helpers.entry(m, ADDR)
    # Node 1's eviction wrote the block back as Migratory-Uncached; node
    # 3's read re-acquired it with ownership directly from home.
    assert e.state is DirState.MIGRATORY_DIRTY
    assert e.owner == 3
    assert helpers.line(m, 3, ADDR).state is CacheState.MIGRATING
    assert m.counters.get("writebacks") >= 1
