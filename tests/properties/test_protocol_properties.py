"""Property-based end-to-end protocol tests.

Hypothesis generates whole parallel programs; the machine must terminate
(no protocol deadlock) and uphold the coherence invariants that the
:class:`~repro.coherence.checker.CoherenceChecker` asserts continuously
— under every protocol variant and both consistency models, with a tiny
cache so replacements, NAKs, and MIack replacement locks all fire.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.coherence.states import DirState
from repro.consistency import SEQUENTIAL_CONSISTENCY, WEAK_ORDERING
from repro.cpu.ops import Barrier, Lock, Read, Unlock, Write
from repro.memory.cache import CacheState

POLICIES = [
    ProtocolPolicy("W-I"),
    ProtocolPolicy("AD"),
    ProtocolPolicy("AD-RXQ"),
    ProtocolPolicy("AD-NONOMIG"),
]

NUM_PROCS = 4  # 2x2 mesh keeps the state space dense and runs fast

op_strategy = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 11)),
    st.tuples(st.just("write"), st.integers(0, 11)),
    st.tuples(st.just("cs"), st.integers(0, 2)),  # lock-protected RMW
)

program_strategy = st.lists(op_strategy, min_size=0, max_size=25)
programs_strategy = st.lists(
    program_strategy, min_size=NUM_PROCS, max_size=NUM_PROCS
)


def materialize(raw_program, counters_base=12):
    for kind, arg in raw_program:
        if kind == "read":
            yield Read(arg * 16)
        elif kind == "write":
            yield Write(arg * 16)
        else:
            yield Lock(arg)
            yield Read((counters_base + arg) * 16)
            yield Write((counters_base + arg) * 16)
            yield Unlock(arg)


def check_final_state(machine):
    """Structural invariants once the machine has drained."""
    # Every directory entry idle; owner/sharer bookkeeping consistent with
    # the actual cache contents.
    for directory in machine.directories:
        for block, entry in directory.entries.items():
            assert not entry.busy
            assert not entry.pending
            holders = {
                c.node
                for c in machine.caches
                if c.cache.lookup(block) is not None
            }
            if entry.state in (DirState.DIRTY_REMOTE, DirState.MIGRATORY_DIRTY):
                line = machine.caches[entry.owner].cache.lookup(block)
                assert line is not None
                assert line.state in (CacheState.DIRTY, CacheState.MIGRATING)
                assert holders == {entry.owner}
            elif entry.state in (DirState.UNCACHED, DirState.MIGRATORY_UNCACHED):
                assert not holders
            else:  # Shared-Remote: presence may be stale (silent evictions)
                assert holders <= entry.sharers
                for holder in holders:
                    line = machine.caches[holder].cache.lookup(block)
                    assert line.state is CacheState.SHARED
    # No writebacks or MSHRs left.
    for cache in machine.caches:
        assert not cache.mshrs
        assert not cache.wb_buffer


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@given(raw=programs_strategy, wo=st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_programs_terminate_coherently(policy, raw, wo):
    config = MachineConfig(
        mesh_width=2,
        mesh_height=2,
        cache_size=256,  # 16 frames: heavy replacement traffic
        policy=policy,
        consistency=WEAK_ORDERING if wo else SEQUENTIAL_CONSISTENCY,
        max_events=2_000_000,
    )
    machine = Machine(config)
    machine.run([iter(list(materialize(p))) for p in raw])
    check_final_state(machine)


@given(raw=programs_strategy)
@settings(max_examples=30, deadline=None)
def test_wi_and_ad_commit_identical_write_counts(raw):
    """Both protocols perform exactly the same writes (same programs)."""
    latest = []
    for policy in (ProtocolPolicy("W-I"), ProtocolPolicy("AD")):
        config = MachineConfig(
            mesh_width=2, mesh_height=2, cache_size=256,
            policy=policy, max_events=2_000_000,
        )
        machine = Machine(config)
        machine.run([iter(list(materialize(p))) for p in raw])
        latest.append(dict(machine.checker.latest))
    assert latest[0] == latest[1]
