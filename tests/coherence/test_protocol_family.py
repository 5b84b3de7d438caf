"""Timed tests for the MESI / Dragon / Hybrid protocol family.

Scripted sequences drive the full machine directly (no StatsMark, so
cold-start events like MESI's exclusive grants stay visible in the
counters), plus workload-level assertions for the acceptance criteria:
Dragon invalidates less than W-I, the hybrid actually falls back on a
migratory workload, and there AD beats Dragon on time and traffic.
"""

import pytest

from repro.coherence.states import DirState
from repro.core.policy import ProtocolPolicy
from repro.cpu.ops import Barrier, Read, Write
from repro.experiments.runner import run_workload
from repro.memory.cache import CacheState

ADDR = 8192  # page 2 -> home node 2; requesters use other nodes.


def seq(machine_helpers, policy, *steps, **overrides):
    """Run ordered steps [(node, op), ...] separated by barriers."""
    build, run = machine_helpers.build, machine_helpers.run
    machine = build(policy=policy, **overrides)
    num = machine.config.num_nodes
    per_node = {n: [] for n in range(num)}
    for index, (node, op) in enumerate(steps):
        for n in range(num):
            if n == node:
                per_node[n].append(op)
            per_node[n].append(Barrier(index))
    run(machine, per_node)
    return machine


# ----------------------------------------------------------------------
# MESI: exclusive grant and silent E->M upgrade
# ----------------------------------------------------------------------
def test_mesi_uncached_read_grants_exclusive(helpers):
    m = seq(helpers, ProtocolPolicy("MESI"), (0, Read(ADDR)))
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE
    assert e.owner == 0
    # The line fills clean-exclusive (the E of MESI, carried by the
    # MIGRATING code) without any invalidation traffic.
    assert helpers.line(m, 0, ADDR).state is CacheState.MIGRATING
    assert m.counters.get("exclusive_grants") == 1
    assert m.counters.get("invalidations_sent") == 0


def test_mesi_silent_upgrade_to_modified(helpers):
    m = seq(helpers, ProtocolPolicy("MESI"), (0, Read(ADDR)), (0, Write(ADDR)))
    # The E->M upgrade is local: no read-exclusive request reaches home.
    assert helpers.line(m, 0, ADDR).state is CacheState.DIRTY
    assert m.counters.get("migrating_promotions") == 1
    assert m.counters.get("rxq_received") == 0
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE
    assert e.owner == 0


def test_mesi_second_reader_demotes_exclusive(helpers):
    m = seq(helpers, ProtocolPolicy("MESI"), (0, Read(ADDR)), (1, Read(ADDR)))
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.SHARED_REMOTE
    assert e.sharers == {0, 1}
    assert helpers.line(m, 0, ADDR).state is CacheState.SHARED
    assert helpers.line(m, 1, ADDR).state is CacheState.SHARED


def test_mesi_exclusive_eviction_writes_back(helpers):
    """A clean-exclusive line cannot be dropped silently — the directory
    thinks the cache owns it, so eviction must resync via writeback."""
    policy = ProtocolPolicy("MESI")
    build, run = helpers.build, helpers.run
    machine = build(policy=policy, cache_size=512)
    line = machine.config.line_size
    way_span = 512 // machine.config.associativity
    conflicting = [ADDR + i * way_span for i in range(1 + 512 // way_span)]
    ops = [Read(ADDR)] + [Read(a) for a in conflicting[1:]]
    run(machine, {0: ops})
    e = helpers.entry(machine, ADDR)
    assert e.state is DirState.UNCACHED
    assert machine.counters.get("writebacks") >= 1


# ----------------------------------------------------------------------
# Dragon: updates instead of invalidations
# ----------------------------------------------------------------------
def test_dragon_write_updates_sharers(helpers):
    m = seq(
        helpers, ProtocolPolicy("Dragon"),
        (0, Read(ADDR)), (1, Read(ADDR)), (0, Write(ADDR)),
    )
    e = helpers.entry(m, ADDR)
    # Both caches stay shared; the write committed at home.
    assert e.state is DirState.SHARED_REMOTE
    assert e.sharers == {0, 1}
    assert helpers.line(m, 0, ADDR).state is CacheState.SHARED
    assert helpers.line(m, 1, ADDR).state is CacheState.SHARED
    assert m.counters.get("wu_received") == 1
    assert m.counters.get("updates_sent") == 1
    assert m.counters.get("updates_applied") == 1
    assert m.counters.get("uacks_sent") == 1
    assert m.counters.get("invalidations_sent") == 0


def test_dragon_sole_writer_takes_dirty(helpers):
    """With no other sharer there is nobody to update: the store takes
    the ordinary read-exclusive flow and the line goes Dirty (Dragon's
    Sm-with-no-sharers = M)."""
    m = seq(helpers, ProtocolPolicy("Dragon"), (0, Write(ADDR)))
    assert helpers.line(m, 0, ADDR).state is CacheState.DIRTY
    assert m.counters.get("updates_sent") == 0
    e = helpers.entry(m, ADDR)
    assert e.state is DirState.DIRTY_REMOTE


def test_dragon_consumer_read_sees_updated_version(helpers):
    m = seq(
        helpers, ProtocolPolicy("Dragon"),
        (0, Read(ADDR)), (1, Read(ADDR)),
        (0, Write(ADDR)), (0, Write(ADDR)),
        (1, Read(ADDR)),
    )
    line0 = helpers.line(m, 0, ADDR)
    line1 = helpers.line(m, 1, ADDR)
    assert line0.version == line1.version == 2
    assert m.counters.get("updates_applied") == 2


# ----------------------------------------------------------------------
# Hybrid: competitive fallback to invalidation
# ----------------------------------------------------------------------
def test_hybrid_falls_back_after_threshold(helpers):
    threshold = 2
    policy = ProtocolPolicy("Hybrid", update_threshold=threshold)
    # Two sharers, then three writes with no intervening consumer read:
    # the first two update, the third falls back and invalidates.
    m = seq(
        helpers, policy,
        (0, Read(ADDR)), (1, Read(ADDR)),
        (0, Write(ADDR)), (0, Write(ADDR)), (0, Write(ADDR)),
    )
    assert m.counters.get("updates_sent") == threshold
    assert m.counters.get("update_fallbacks") == 1
    assert m.counters.get("invalidations_sent") == 1
    assert helpers.line(m, 0, ADDR).state is CacheState.DIRTY
    line1 = helpers.line(m, 1, ADDR)
    assert line1 is None or line1.state is CacheState.INVALID
    assert helpers.entry(m, ADDR).state is DirState.DIRTY_REMOTE


def test_hybrid_consumer_read_resets_counter(helpers):
    policy = ProtocolPolicy("Hybrid", update_threshold=2)
    # A directory-visible consumer read (node 3's cold miss; updated
    # sharers hit locally and never reach home) resets the per-line
    # counter, so three writes split 2/1 around it never trip the
    # fallback.  The post-reset write updates both other sharers.
    m = seq(
        helpers, policy,
        (0, Read(ADDR)), (1, Read(ADDR)),
        (0, Write(ADDR)), (0, Write(ADDR)),
        (3, Read(ADDR)),
        (0, Write(ADDR)),
    )
    assert m.counters.get("updates_sent") == 4
    assert m.counters.get("update_fallbacks") == 0
    assert helpers.entry(m, ADDR).state is DirState.SHARED_REMOTE
    assert helpers.entry(m, ADDR).sharers == {0, 1, 3}


# ----------------------------------------------------------------------
# Acceptance criteria at workload level
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mp3d_results():
    policies = {
        "wi": ProtocolPolicy("W-I"),
        "ad": ProtocolPolicy("AD"),
        "dragon": ProtocolPolicy("Dragon"),
        "hybrid": ProtocolPolicy("Hybrid"),
    }
    return {
        name: run_workload("mp3d", policy, preset="tiny")
        for name, policy in policies.items()
    }


def test_dragon_invalidates_less_than_wi_on_migratory_workload(mp3d_results):
    wi = mp3d_results["wi"].counter("invalidations_sent")
    dragon = mp3d_results["dragon"].counter("invalidations_sent")
    assert dragon < wi
    assert mp3d_results["dragon"].counter("updates_sent") > 0


def test_migratory_sharing_is_write_updates_worst_case(mp3d_results):
    """Why the paper builds on write-invalidate: write-update broadcasts
    every critical-section write to sharers that will not read it before
    the next processor takes the record, while AD moves each record with
    one Mr/Mack round."""
    ad, dragon = mp3d_results["ad"], mp3d_results["dragon"]
    assert ad.execution_time < dragon.execution_time
    assert ad.network_bits < dragon.network_bits


def test_hybrid_falls_back_on_migratory_workload(mp3d_results):
    hybrid = mp3d_results["hybrid"]
    assert hybrid.counter("update_fallbacks") > 0
    # The fallback converts some update bursts into invalidations.
    assert hybrid.counter("invalidations_sent") > 0
    assert (
        hybrid.counter("updates_sent")
        < mp3d_results["dragon"].counter("updates_sent")
    )
