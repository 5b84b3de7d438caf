"""Unit tests for migratory detection — every sequence from the paper.

Section 3.3 gives the nomination condition and three sequences that must
NOT be nominated; Section 3.4 gives the NoMig revert and the Rxq
heuristic.  The sequences run on the simulator's own cache controllers
and home directory (Figure 4 is the directory's state machine), one
processor operation at a time through :meth:`Harness.perform`, so home
sees the paper's request stream ``Rr_i Rxq_i Rr_j ...``.
"""

from repro.coherence.messages import MsgKind
from repro.coherence.states import DirState
from repro.core.detection import should_nominate
from repro.protocols import policy_for
from repro.verify.harness import BLOCK, Harness


def machine(policy="AD"):
    """Four caches and their home directory under ``policy``."""
    return Harness(num_caches=4, policy=policy_for(policy))


def run(harness, *ops):
    """Perform ``("read" | "write" | "evict", node)`` steps; return the
    kinds of the messages the last one delivered."""
    for action, node in ops:
        kinds = [msg.kind for msg in harness.perform(action, node)]
    return kinds


def home(harness):
    return harness.directory.entries[BLOCK]


def count(harness, name):
    return harness.counters.get(name)


#: Rr_0 Rxq_0 Rr_1 Rxq_1: nominated at the second Rxq.
CANONICAL = (("read", 0), ("write", 0), ("read", 1), ("write", 1))


# ----------------------------------------------------------------------
# The nomination predicate (Cond in Figure 4)
# ----------------------------------------------------------------------
def test_nominates_two_copies_different_writer():
    assert should_nominate(num_copies=2, requester=1, last_writer=0)


def test_rejects_same_writer():
    # Producer-consumer: Rxq_i Rr_j Rxq_i Rr_j must not be migratory.
    assert not should_nominate(num_copies=2, requester=0, last_writer=0)


def test_rejects_more_than_two_copies():
    assert not should_nominate(num_copies=3, requester=1, last_writer=0)


def test_rejects_one_copy():
    assert not should_nominate(num_copies=1, requester=1, last_writer=0)


def test_rejects_invalid_last_writer():
    assert not should_nominate(num_copies=2, requester=1, last_writer=None)


# ----------------------------------------------------------------------
# The canonical migratory sequence: Rr_i Rxq_i Rr_j Rxq_j ...
# ----------------------------------------------------------------------
def test_canonical_migratory_sequence_nominated():
    h = machine()
    run(h, ("read", 0), ("write", 0))
    assert home(h).state is DirState.DIRTY_REMOTE
    assert home(h).last_writer == 0     # a write sets LW
    assert run(h, ("read", 1)) == [MsgKind.RR, MsgKind.FWD_RR, MsgKind.RP, MsgKind.SW]
    assert home(h).state is DirState.SHARED_REMOTE
    assert home(h).sharers == {0, 1}
    assert home(h).last_writer == 0     # two sharers keep it
    run(h, ("write", 1))                # N==2, LW=0 != 1 -> nominate
    assert home(h).state is DirState.MIGRATORY_DIRTY
    assert home(h).owner == 1
    assert count(h, "nominations") == 1


def test_migratory_stays_migratory_across_processors():
    h = machine()
    run(h, *CANONICAL)
    # Subsequent read-modify-write episodes: ownership migrates on each
    # read, and the write is a local Migrating -> Dirty hit.
    for node in (2, 3, 0):
        assert run(h, ("read", node)) == [
            MsgKind.RR, MsgKind.MR, MsgKind.MACK, MsgKind.DT, MsgKind.MIACK,
        ]
        assert home(h).owner == node
        assert h.perform("write", node) == []
    assert home(h).state is DirState.MIGRATORY_DIRTY
    assert count(h, "nominations") == 1
    assert count(h, "migratory_reads") == 3


def test_write_invalidate_policy_never_nominates():
    h = machine("W-I")
    run(h, *CANONICAL)
    assert home(h).state is DirState.DIRTY_REMOTE
    assert count(h, "nominations") == 0


# ----------------------------------------------------------------------
# Paper's non-migratory sequences
# ----------------------------------------------------------------------
def test_intervening_reader_rejected():
    """Rxq_i Rr_j Rr_k Rxq_j: three copies at the Rxq -> not migratory."""
    h = machine()
    run(h, ("read", 0), ("write", 0), ("read", 1), ("read", 2))
    assert home(h).sharers == {0, 1, 2}
    assert home(h).last_writer is None  # reset above two sharers
    run(h, ("write", 1))
    assert home(h).state is DirState.DIRTY_REMOTE
    assert count(h, "nominations") == 0


def test_producer_consumer_rejected():
    """Rxq_i Rr_j Rxq_i Rr_j: LW == requester -> not migratory."""
    h = machine()
    run(h, ("write", 0), ("read", 1), ("write", 0))  # N==2 but LW==0
    assert home(h).state is DirState.DIRTY_REMOTE
    run(h, ("read", 1), ("write", 0))
    assert home(h).state is DirState.DIRTY_REMOTE
    assert count(h, "nominations") == 0


def test_silent_replacement_rejected():
    """Rr_i Rxq_i Rr_j Rr_k Repl_k Rxq_j: stale presence + invalid LW."""
    h = machine()
    run(h, ("read", 0), ("write", 0), ("read", 1), ("read", 2))
    assert h.perform("evict", 2) == []  # silent: home still counts 3 copies
    assert len(home(h).sharers) == 3
    run(h, ("write", 1))
    assert home(h).state is DirState.DIRTY_REMOTE
    assert not home(h).sharers
    assert count(h, "nominations") == 0


# ----------------------------------------------------------------------
# Migratory-Uncached: nomination survives replacement
# ----------------------------------------------------------------------
def test_replacement_of_migratory_block_keeps_nomination():
    h = machine()
    run(h, *CANONICAL)
    assert run(h, ("evict", 1)) == [MsgKind.WB, MsgKind.WACK]
    assert home(h).state is DirState.MIGRATORY_UNCACHED
    # Re-fetch: served from memory straight back to Migratory-Dirty.
    assert run(h, ("read", 2)) == [MsgKind.RR, MsgKind.MACK]
    assert home(h).state is DirState.MIGRATORY_DIRTY
    assert home(h).owner == 2


# ----------------------------------------------------------------------
# NoMig revert (Section 3.4 / 5.4)
# ----------------------------------------------------------------------
def test_read_only_pingpong_reverts():
    h = machine()
    run(h, *CANONICAL)
    # Processor 2 reads; owner 1 wrote, so ownership migrates to 2.
    run(h, ("read", 2))
    assert home(h).owner == 2
    # Processor 3 reads while 2 never wrote: NoMig, revert to ordinary.
    assert MsgKind.NOMIG in run(h, ("read", 3))
    assert home(h).state is DirState.SHARED_REMOTE
    assert home(h).sharers == {2, 3}
    assert count(h, "nomig_reverts") == 1
    assert home(h).last_writer is None


def test_nomig_disabled_keeps_pingponging():
    h = machine("AD-NONOMIG")
    run(h, *CANONICAL)
    run(h, ("read", 2), ("read", 3))  # would revert, but the ablation disables it
    assert home(h).state is DirState.MIGRATORY_DIRTY
    assert home(h).owner == 3
    assert count(h, "nomig_reverts") == 0


def test_block_can_be_renominated_after_revert():
    h = machine()
    run(h, *CANONICAL)
    run(h, ("read", 2), ("read", 3))  # NoMig revert
    assert home(h).state is DirState.SHARED_REMOTE
    # Now start writing again in migratory style.
    run(h, ("write", 3))                # sharers were {2,3}, but LW invalid -> no
    assert home(h).state is DirState.DIRTY_REMOTE
    run(h, ("read", 0), ("write", 0))   # N==2 ({3,0}), LW=3 != 0 -> nominate again
    assert home(h).state is DirState.MIGRATORY_DIRTY
    assert count(h, "nominations") == 2


# ----------------------------------------------------------------------
# Rxq on a migratory block (Section 3.4, dashed arrows)
# ----------------------------------------------------------------------
def test_rxq_default_keeps_migratory():
    h = machine()
    run(h, *CANONICAL)
    run(h, ("write", 2))                # write without preceding read
    assert home(h).state is DirState.MIGRATORY_DIRTY
    assert home(h).owner == 2
    assert count(h, "rxq_demotions") == 0


def test_rxq_heuristic_demotes():
    h = machine("AD-RXQ")
    run(h, *CANONICAL)
    run(h, ("write", 2))
    assert home(h).state is DirState.DIRTY_REMOTE
    assert home(h).owner == 2
    assert count(h, "rxq_demotions") == 1


def test_rxq_heuristic_demotes_from_migratory_uncached():
    h = machine("AD-RXQ")
    run(h, *CANONICAL, ("evict", 1))
    assert home(h).state is DirState.MIGRATORY_UNCACHED
    run(h, ("write", 2))
    assert home(h).state is DirState.DIRTY_REMOTE
    assert home(h).owner == 2


def test_write_without_read_stays_migratory_by_default():
    """Paper: 'As a default policy, we still consider the block migratory'."""
    h = machine()
    run(h, *CANONICAL, ("evict", 1))
    run(h, ("write", 2))                # first access is a write
    assert home(h).state is DirState.MIGRATORY_DIRTY
    assert home(h).owner == 2
