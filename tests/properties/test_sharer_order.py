"""A directory row's sharers iterate in the order the old path built them.

The order in which a home sends invalidations and updates is the order
its row's sharer set iterates in, and both result goldens rest on it.
That order was fixed when every row built its set by insertion alone:
``{i}`` for the first reader, ``add(i)`` for each later one, and
``{src, requester}`` after a Sw or NoMig.  Rows now share interned
copies of the one- and two-member sets: a second reader joining
``{first}`` takes the interned ``frozenset((first, i))``, built in the
order ``add(i)`` would have built it, and a third sharer gives a row
its own copy, built as ``{*sharers, i}``.  A copy of a set that small
gets the same 8-slot table, so it iterates as ``add(i)`` would have
left it.  A set with more than two members is the row's own and grows
in place, because copying a bigger one can re-lay its table.

A union shows how.  At 16 nodes, readers 0, 1, 5 and 10 leave a set
that iterates 0, 1, 10, 5 (10 collides with 2 in an 8-slot table).  If
node 1 reads again, ``add(1)`` changes nothing, but ``sharers | {1}``
sizes its table for a fifth member before finding that 1 is already
there, and the re-laid set iterates 0, 1, 5, 10.  At 64 nodes a copy
by ``{*sharers, i}`` of a five-member set reorders it the same way.

Hypothesis drives a real :class:`DirectoryController` through random
first reads, joining readers, write-update joins, Sw and NoMig hand-backs
and writebacks over 16 and 64 node ids, and checks after every step that
the row's sharers, and the ``sharers - {i}`` a write sends to, iterate
exactly as the insertion-only set does.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.directory import _TWO, DirectoryController
from repro.coherence.messages import CoherenceMessage, MsgKind
from repro.coherence.states import DirState
from repro.protocols import policy_for
from repro.stats.counters import Counters

BLOCK = 0
#: Sends and memory accesses that happen at once (the test reads state only).
_SIM = SimpleNamespace(now=0, schedule_at=lambda time, send, msg: None)
_TRANSPORT = SimpleNamespace(
    register_directory=lambda node, handler: None, send=lambda msg: None
)
_MEMORY = SimpleNamespace(access=lambda now: now, directory_access=lambda now: now)


def _directory(nodes):
    """A Dragon home at node ``nodes`` (Dragon has both join paths: reads
    and write updates)."""
    return DirectoryController(
        nodes, nodes, _SIM, _TRANSPORT, _MEMORY, policy_for("Dragon"), Counters()
    )


def _deliver(directory, kind, src, requester=None):
    directory.handle(CoherenceMessage(
        src=src, dst=directory.node, kind=kind, block=BLOCK,
        requester=src if requester is None else requester,
        version=directory.entry(BLOCK).version,
    ))


def _steps(nodes):
    node = st.integers(0, nodes - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(("read", "update", "writeback")), node),
            st.tuples(st.sampled_from(("sw", "nomig")), node, node).filter(
                lambda step: step[1] != step[2]
            ),
        ),
        max_size=40,
    )


@pytest.mark.parametrize("nodes", [16, 64])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sharers_iterate_in_insertion_order(nodes, data):
    directory = _directory(nodes)
    built = set()  # the set the insertion-only path would hold
    for kind, *ids in data.draw(_steps(nodes)):
        if kind == "read" or (kind == "update" and not built - {ids[0]}):
            _deliver(directory, MsgKind.RR, ids[0])
            if built:
                built.add(ids[0])
            else:
                built = {ids[0]}
        elif kind == "update":  # a write update with other sharers joins
            _deliver(directory, MsgKind.WU, ids[0])
            built.add(ids[0])
        elif kind == "writeback":  # own the block, then write it back
            _deliver(directory, MsgKind.RXQ, ids[0])
            _deliver(directory, MsgKind.WB, ids[0])
            built = set()
        else:  # src owns the block; requester's read makes it hand back
            src, requester = ids
            _deliver(directory, MsgKind.RXQ, src)
            if kind == "nomig":
                directory.entry(BLOCK).state = DirState.MIGRATORY_DIRTY
            _deliver(directory, MsgKind.RR, requester)
            reply = MsgKind.SW if kind == "sw" else MsgKind.NOMIG
            _deliver(directory, reply, src, requester)
            built = {src, requester}
        entry = directory.entry(BLOCK)
        assert not entry.busy
        assert list(entry.sharers) == list(built)
        for node in {*built, *ids}:
            assert list(entry.sharers - {node}) == list(built - {node})


def test_small_sharer_sets_are_shared_by_every_directory():
    one, two = _directory(16), _directory(64)
    for directory in (one, two):
        _deliver(directory, MsgKind.RR, 3)
    assert one.entry(BLOCK).sharers is two.entry(BLOCK).sharers == {3}
    for directory in (one, two):
        _deliver(directory, MsgKind.RXQ, 5)
        _deliver(directory, MsgKind.RR, 9)
        _deliver(directory, MsgKind.SW, 5, 9)
    assert one.entry(BLOCK).sharers is two.entry(BLOCK).sharers == {5, 9}
    # A third sharer gives the row its own set and leaves the shared one.
    _deliver(one, MsgKind.RR, 12)
    assert one.entry(BLOCK).sharers == {5, 9, 12}
    assert two.entry(BLOCK).sharers == {5, 9}


@pytest.mark.parametrize("join", [MsgKind.RR, MsgKind.WU])
def test_a_second_sharer_takes_the_interned_pair(join):
    # 10 and 2 collide in an 8-slot table, so {10, 2} and {2, 10}
    # iterate in different orders: the pair must be the one ``add`` builds.
    directory = _directory(16)
    _deliver(directory, MsgKind.RR, 10)
    _deliver(directory, join, 2)  # a read, or a write update with 10 to update
    built = {10}
    built.add(2)
    sharers = directory.entry(BLOCK).sharers
    assert sharers is _TWO[10][2]
    assert list(sharers) == list(built)
    _deliver(directory, join, 5)  # a third sharer copies the pair
    assert directory.entry(BLOCK).sharers == {10, 2, 5}
    assert _TWO[10][2] == {10, 2}
