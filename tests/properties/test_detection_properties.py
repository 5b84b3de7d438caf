"""Property-based tests of migratory detection (hypothesis).

Figure 4's conditions must hold on *every* request stream, not just the
examples of Section 3.3.  Random streams of reads, writes and evictions
by four processors run on the simulator's own cache controllers and home
directory, one operation to quiescence at a time
(:meth:`Harness.perform`), and each property checks home after every
operation.  LW is a don't-care while a block is Migratory-Dirty or
Migratory-Uncached, so no property reads it there.
"""

from hypothesis import given, settings, strategies as st

from repro.coherence.messages import MsgKind
from repro.coherence.states import MIGRATORY_STATES, DirState
from repro.core.detection import should_nominate
from repro.protocols import policy_for
from repro.verify.harness import BLOCK, Harness

NODES = st.integers(min_value=0, max_value=3)
ADAPTIVE = st.sampled_from(["AD", "AD-RXQ", "AD-NONOMIG"])
POLICIES = st.sampled_from(["AD", "W-I", "AD-RXQ", "AD-NONOMIG"])

#: Streams of up to 40 processor operations, ``(action, node)``.
OPERATIONS = st.lists(
    st.sampled_from([
        (action, node) for action in ("read", "write", "evict") for node in range(4)
    ]),
    max_size=40,
)


def machine(policy):
    """Four caches under ``policy``, and the view of their block's home row."""
    harness = Harness(num_caches=4, policy=policy_for(policy))
    return harness, harness.directory.entry(BLOCK)


@given(POLICIES, OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_fsm_never_crashes_and_stays_consistent(policy, stream):
    """Structural invariants of the home state, at quiescence."""
    harness, home = machine(policy)
    for action, node in stream:
        harness.perform(action, node)
        assert not home.busy and not home.awaiting_wb
        assert harness.directory.queued() == 0
        if home.state in (DirState.DIRTY_REMOTE, DirState.MIGRATORY_DIRTY):
            assert home.owner is not None
            assert not home.sharers
        if home.state in (DirState.UNCACHED, DirState.MIGRATORY_UNCACHED):
            assert home.owner is None
            assert not home.sharers
        if home.state is DirState.SHARED_REMOTE:
            assert home.owner is None
            assert home.sharers


@given(OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_wi_policy_never_enters_migratory_states(stream):
    harness, home = machine("W-I")
    for action, node in stream:
        harness.perform(action, node)
        assert home.state not in MIGRATORY_STATES
    assert harness.counters.get("nominations") == 0


@given(POLICIES, OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_nomination_only_under_paper_condition(policy, stream):
    """A write reaching a Shared-Remote home nominates exactly when N==2
    and LW is valid and different; nothing else nominates."""
    harness, home = machine(policy)
    adaptive = harness.directory.protocol.adaptive
    for action, node in stream:
        state, copies, lw = home.state, len(home.sharers), home.last_writer
        before = harness.counters.get("nominations")
        kinds = [msg.kind for msg in harness.perform(action, node)]
        nominated = harness.counters.get("nominations") > before
        if MsgKind.RXQ in kinds and state is DirState.SHARED_REMOTE:
            assert nominated == (adaptive and should_nominate(copies, node, lw))
        else:
            assert not nominated
        if nominated:
            assert home.state is DirState.MIGRATORY_DIRTY
            assert home.owner == node


@given(POLICIES, OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_lw_invalid_whenever_sharers_exceed_two(policy, stream):
    """LW is reset above two sharers and by a NoMig revert, and names the
    owner of a Dirty-Remote block (every write that takes the block there
    sets it)."""
    harness, home = machine(policy)
    for action, node in stream:
        kinds = [msg.kind for msg in harness.perform(action, node)]
        if len(home.sharers) > 2 or MsgKind.NOMIG in kinds:
            assert home.last_writer is None
        if home.state is DirState.DIRTY_REMOTE:
            assert home.last_writer == home.owner


@given(ADAPTIVE, st.lists(NODES, min_size=2, max_size=20))
@settings(max_examples=200, deadline=None)
def test_pure_migratory_stream_nominates_on_second_writer(policy, writers):
    """Rr_i Rxq_i Rr_j Rxq_j ... nominates exactly at the first j != i,
    and the block stays migratory after that."""
    harness, home = machine(policy)
    first = writers[0]
    seen_different = False
    for node in writers:
        harness.perform("read", node)
        harness.perform("write", node)
        seen_different = seen_different or node != first
        assert (home.state is DirState.MIGRATORY_DIRTY) == seen_different
    assert harness.counters.get("nominations") == (1 if seen_different else 0)
    assert harness.counters.get("nomig_reverts") == 0


@given(st.lists(st.booleans(), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_producer_consumer_never_nominated(reader_flags):
    """Writer 0 alternating with arbitrary readers is never migratory."""
    harness, home = machine("AD")
    for flag in reader_flags:
        harness.perform("write", 0)
        harness.perform("read", 1 if flag else 2)
        assert home.state not in MIGRATORY_STATES
    assert harness.counters.get("nominations") == 0
