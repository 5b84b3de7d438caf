"""Home directory controller.

One :class:`DirectoryController` per node owns the directory state for
every memory block whose home is that node.  It implements the DASH
write-invalidate protocol of the paper's Section 3.1 and — when the
protocol's ``adaptive`` hook is set — the adaptive migratory extension of
Sections 3.2-3.4.

Transaction serialization
-------------------------

Transactions that require a forward to a remote owner (read or
read-exclusive to a Dirty-Remote block, any access to a Migratory-Dirty
block) latch the entry ``busy`` and queue subsequent requests; the owner's
response (Sw / Xfer / DT / NoMig) completes the transaction and drains the
queue.  Requests that can be answered from home memory (Uncached /
Shared-Remote / Migratory-Uncached) complete immediately; invalidation
acknowledgements are collected by the *requester* (DASH style), so the
read-exclusive flow does not hold the entry busy.

A forward that reaches a cache which has already written the block back
is NAKed; the NAK re-queues the transaction, which is retried once the
writeback (guaranteed to be in flight) arrives.

Storage layout
--------------

Per-block records are struct-of-arrays, addressed by page: dense
per-row columns (state codes in a ``bytearray``, owner and last-writer
in ``array('h')``, version and ``upd_count`` in ``array('i')``, busy /
awaiting-writeback flags in ``bytearray``s) grow one placement page of
rows at a time.  A home owns whole pages, so every row of a page is
one of its blocks.  A ``page -> base row`` dict, one entry per touched
page, finds a block's row at ``base + block % lines_per_page``; there
is no ``block -> row`` dict and no boxed int per block.  A row that no
request has touched holds the reserved state code ``_UNTOUCHED`` and
is absent from :attr:`entries`; its first touch makes it Uncached.

A row's sharer list is a set whose iteration order is the order its
invalidations and updates are sent in.  Sharer sets are only built by
insertion, never emptied in place, so each iterates in the order of its
insertions.  Most rows point at an interned, immutable set that every
directory shares: the empty ``_NO_SHARERS``, a first reader's
``_ONE[i]``, or the pair ``_TWO[first][second]`` that a second reader
joining ``first``, or a Sw or NoMig, leaves.  A third sharer gives a
row its own set, ``{*sharers, i}``: a copy of a two-member set keeps
its table layout, so it iterates as the set would after ``add(i)``.  A
set with more than two members is the row's own and grows in place,
since copying a bigger set (by a display or a union) can re-size its
table and reorder it.  Pending queues are allocated lazily too (most
blocks never queue), and so are the ``DirectoryEntry`` views of
:mod:`repro.coherence.directory_views`: a thin *view* over one row,
kept for cold paths (tests, diagnostics); handlers work on row indices
and integer codes, dispatched through a kind-indexed table.

The last-writer pointer (the paper's LW with its valid bit) is the
``_lw`` column, read through ``DirectoryEntry.last_writer``: -1
encodes the reset valid bit, every transition to Dirty-Remote and every
nomination records the new owner, and the pointer is invalidated
whenever the sharing list grows beyond two or a NoMig reverts the block.
No transition out of Migratory-Dirty or Migratory-Uncached reads it.
These handlers are the Figure 4 state machine; the tests of its
sequences drive them through :class:`repro.verify.Harness`.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import (
    TYPE_CHECKING, AbstractSet, Callable, Deque, Dict, List, Optional, Tuple,
)

from repro.coherence.messages import NUM_KINDS, CoherenceMessage, MsgKind
from repro.coherence.states import (
    DIR_DR,
    DIR_MD,
    DIR_MU,
    DIR_SR,
    DIR_STATES_BY_CODE,
    DIR_U,
    HOME_VALID_CODES,
)
from repro.coherence.transport import Transport
from repro.core.detection import should_nominate
from repro.core.policy import ProtocolPolicy
from repro.protocols import behavior_for
from repro.memory.dram import MemoryModule
from repro.sim.engine import SimulationError, Simulator
from repro.stats.counters import Counters

if TYPE_CHECKING:
    from repro.coherence.directory_views import DirectoryEntry, _EntriesView

#: State code of a row that no request has touched (see "Storage layout").
_UNTOUCHED = 255
#: The sharer list of every row that has no sharers.
_NO_SHARERS: AbstractSet[int] = frozenset()
#: Interned sharer sets, shared by every directory: ``_ONE[i]`` is
#: ``{i}``, and ``_TWO[first][second]`` is ``{first, second}`` made on
#: first use by :func:`_pair` (``{a, b}`` and ``{b, a}`` may iterate in
#: different orders).  Each entry is immutable and fixed by its index,
#: so sharing them across machines changes no result.
_ONE: List[AbstractSet[int]] = []
_TWO: List[List[Optional[AbstractSet[int]]]] = []


def _pair(first: int, second: int) -> AbstractSet[int]:
    """The interned ``{first, second}``: it iterates as ``{first}`` does
    after ``add(second)``."""
    pairs = _TWO[first]
    pair = pairs[second]
    if pair is None:
        pairs[second] = pair = frozenset((first, second))
    return pair


def _intern_sharers(num_nodes: int) -> None:
    """Grow the interned sharer sets to cover node ids below ``num_nodes``."""
    size = len(_ONE)
    if num_nodes <= size:
        return
    for pairs in _TWO:
        pairs.extend([None] * (num_nodes - size))
    for node in range(size, num_nodes):
        _ONE.append(frozenset((node,)))
        _TWO.append([None] * num_nodes)


class DirectoryController:
    """The home-side protocol engine for one node's memory module."""

    def __init__(
        self,
        node: int,
        num_nodes: int,
        sim: Simulator,
        transport: Transport,
        memory: MemoryModule,
        policy: ProtocolPolicy,
        counters: Counters,
        checker=None,
        profiler=None,
        tracer=None,
        lines_per_page: int = 256,
    ) -> None:
        self.node = node
        _intern_sharers(num_nodes)
        self.sim = sim
        self.transport = transport
        self.memory = memory
        #: Behavior object supplying the protocol-specific decisions
        #: (see :mod:`repro.protocols.base` for the hook contract).
        self.protocol = behavior_for(policy)
        self._grant_exclusive_read = self.protocol.grant_exclusive_on_read
        self._is_update = self.protocol.is_update
        #: Optional :class:`~repro.coherence.checker.CoherenceChecker`:
        #: write-update protocols commit writes *at home*, so the home
        #: versions them (None falls back to local version bumping).
        self.checker = checker
        self.counters = counters
        # Pre-resolved integer-slot counter handles (hot path: no string
        # hashing per home transaction).
        self._c_rr_received = counters.handle("rr_received")
        self._c_rxq_received = counters.handle("rxq_received")
        self._c_migratory_reads = counters.handle("migratory_reads")
        self._c_nominations = counters.handle("nominations")
        self._c_invalidations_sent = counters.handle("invalidations_sent")
        self._c_rxq_demotions = counters.handle("rxq_demotions")
        self._c_nomig_reverts = counters.handle("nomig_reverts")
        self._c_naks = counters.handle("naks")
        self._c_writebacks_received = counters.handle("writebacks_received")
        self._c_wu_received = counters.handle("wu_received")
        self._c_updates_sent = counters.handle("updates_sent")
        self._c_update_fallbacks = counters.handle("update_fallbacks")
        self._c_exclusive_grants = counters.handle("exclusive_grants")
        #: Gupta-Weber invalidation histogram, one handle per bucket (0-4).
        self._c_inval_dist = [
            counters.handle(f"inval_dist_{bucket}") for bucket in range(5)
        ]
        #: Optional per-block sharing profiler
        #: (:class:`repro.stats.block_profile.BlockProfiler`).
        self.profiler = profiler
        #: Optional :class:`~repro.obs.tracer.TransactionTracer`; records
        #: the directory-state transitions taken by traced transactions.
        self.tracer = tracer
        # Struct-of-arrays storage, grown a page of rows at a time (a
        # 4 KB page of 16-byte lines unless the machine says otherwise).
        self._lines_per_page = lines_per_page
        #: First row of each page that has rows.
        self._bases: Dict[int, int] = {}
        #: Rows that a request has touched (``len(entries)``).
        self._touched = 0
        self._states = bytearray()
        self._owners = array("h")
        self._versions = array("i")
        #: Last-writer pointer; -1 = valid bit reset.
        self._lw = array("h")
        #: Unconsumed home-committed updates per line (competitive hybrid:
        #: reaching the policy threshold falls the line back to
        #: invalidation; any consumer read resets it).
        self._upd_count = array("i")
        self._busy = bytearray()
        self._awaiting = bytearray()
        self._sharers: List[AbstractSet[int]] = []
        self._inflight: List[Optional[Tuple[CoherenceMessage, bool]]] = []
        self._pending: List[Optional[Deque[CoherenceMessage]]] = []
        self._row_views: Dict[int, DirectoryEntry] = {}
        # Kind-indexed message dispatch table (None = protocol error).
        table: List[Optional[Callable[[int, CoherenceMessage], None]]]
        table = [None] * NUM_KINDS
        table[MsgKind.RR.index] = self._on_rr
        table[MsgKind.RXQ.index] = self._on_rxq
        table[MsgKind.SW.index] = self._on_sharing_writeback
        table[MsgKind.XFER.index] = self._on_ownership_transfer
        table[MsgKind.DT.index] = self._on_dirty_transfer
        table[MsgKind.NOMIG.index] = self._on_nomig
        table[MsgKind.NAK.index] = self._on_nak
        table[MsgKind.WB.index] = self._on_writeback
        table[MsgKind.WU.index] = self._on_wu
        self._dispatch = table
        transport.register_directory(node, self.handle)

    # ------------------------------------------------------------------
    # Row management and views
    # ------------------------------------------------------------------
    def _row(self, block: int) -> int:
        """Row index for ``block``; its first touch makes the row Uncached
        (and the first touch of its page adds the page's rows)."""
        lines = self._lines_per_page
        base = self._bases.get(block // lines)
        if base is None:
            self._bases[block // lines] = base = len(self._states)
            self._states += bytes((_UNTOUCHED,)) * lines
            self._owners += array("h", (-1,)) * lines
            self._versions += array("i", (0,)) * lines
            self._lw += array("h", (-1,)) * lines
            self._upd_count += array("i", (0,)) * lines
            self._busy += bytes(lines)
            self._awaiting += bytes(lines)
            self._sharers += [_NO_SHARERS] * lines
            self._inflight += [None] * lines
            self._pending += [None] * lines
        row = base + block % lines
        if self._states[row] == _UNTOUCHED:
            self._states[row] = DIR_U
            self._touched += 1
        return row

    def _pending_of(self, row: int) -> Deque[CoherenceMessage]:
        queue = self._pending[row]
        if queue is None:
            self._pending[row] = queue = deque()
        return queue

    def entry(self, block: int) -> DirectoryEntry:
        """The view of ``block``'s row (the row is made on first use)."""
        from repro.coherence.directory_views import view

        return view(self, self._row(block))

    @property
    def entries(self) -> _EntriesView:
        """Dict-like view of the touched blocks' directory entries."""
        from repro.coherence.directory_views import _EntriesView

        return _EntriesView(self)

    def _set_state(self, row: int, msg: CoherenceMessage, new: int) -> None:
        """Transition ``row`` to code ``new``, logging it on the span."""
        if self.tracer is not None and msg.trace:
            self.tracer.transition(
                msg.trace, self.sim.now, f"dir{self.node}",
                DIR_STATES_BY_CODE[self._states[row]].name,
                DIR_STATES_BY_CODE[new].name,
            )
        self._states[row] = new

    def queued(self) -> int:
        """Transactions queued or in flight here (the sampler's column)."""
        inflight = self._inflight
        return sum(map(len, filter(None, self._pending))) + (
            len(inflight) - inflight.count(None)
        )

    def introspect(self) -> list:
        """Transient directory entries (busy / awaiting / queued), for dumps."""
        out = []
        for block, row in self.entries.rows():
            pending = self._pending[row]
            if not (self._busy[row] or self._awaiting[row] or pending):
                continue
            inflight = None
            if self._inflight[row] is not None:
                msg, demote = self._inflight[row]
                inflight = {
                    "kind": msg.kind.value,
                    "requester": msg.requester,
                    "demote": demote,
                }
            owner = self._owners[row]
            out.append(
                {
                    "home": self.node,
                    "block": block,
                    "state": DIR_STATES_BY_CODE[self._states[row]].name,
                    "owner": None if owner < 0 else owner,
                    "sharers": sorted(self._sharers[row]),
                    "upd_count": self._upd_count[row],
                    "busy": bool(self._busy[row]),
                    "awaiting_wb": bool(self._awaiting[row]),
                    "inflight": inflight,
                    "pending": [
                        {"kind": m.kind.value, "requester": m.requester}
                        for m in (pending or ())
                    ],
                }
            )
        return out

    def snapshot(self, block: int) -> tuple:
        """``block``'s row as a hashable value that :meth:`restore` takes
        back (the row is made on first use, like any access)."""
        row = self._row(block)
        inflight = self._inflight[row]
        return (
            self._states[row], self._owners[row], self._versions[row],
            self._lw[row], self._upd_count[row], self._busy[row],
            self._awaiting[row], tuple(sorted(self._sharers[row])),
            inflight and (inflight[0].fields(), inflight[1]),
            tuple(msg.fields() for msg in self._pending[row] or ()),
        )

    def restore(self, block: int, state: tuple) -> None:
        """Put ``block``'s row back as :meth:`snapshot` returned it."""
        row = self._row(block)
        (
            self._states[row], self._owners[row], self._versions[row],
            self._lw[row], self._upd_count[row], self._busy[row],
            self._awaiting[row], sharers, inflight, pending,
        ) = state
        self._sharers[row] = set(sharers) if sharers else _NO_SHARERS
        self._inflight[row] = inflight and (CoherenceMessage(*inflight[0]), inflight[1])
        self._pending[row] = (
            deque(CoherenceMessage(*msg) for msg in pending) if pending else None
        )

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMessage) -> None:
        handler = self._dispatch[msg.kind.index]
        if handler is None:
            raise SimulationError(f"directory {self.node} got unexpected {msg!r}")
        handler(self._row(msg.block), msg)

    def _on_rr(self, row: int, msg: CoherenceMessage) -> None:
        self._c_rr_received.inc()
        if self._busy[row]:
            self._pending_of(row).append(msg)
        else:
            self._process_read(row, msg)

    def _on_rxq(self, row: int, msg: CoherenceMessage) -> None:
        self._c_rxq_received.inc()
        if self._busy[row]:
            self._pending_of(row).append(msg)
        else:
            self._process_read_exclusive(row, msg)

    def _on_wu(self, row: int, msg: CoherenceMessage) -> None:
        self._c_wu_received.inc()
        if self._busy[row]:
            self._pending_of(row).append(msg)
        else:
            self._process_write_update(row, msg)

    # ------------------------------------------------------------------
    # Request processing (entry not busy)
    # ------------------------------------------------------------------
    def _process(self, row: int, msg: CoherenceMessage) -> None:
        if msg.kind is MsgKind.RR:
            self._process_read(row, msg)
        elif msg.kind is MsgKind.RXQ:
            self._process_read_exclusive(row, msg)
        elif msg.kind is MsgKind.WU:
            self._process_write_update(row, msg)
        else:  # pragma: no cover - queue only ever holds RR/RXQ/WU
            raise SimulationError(f"unexpected queued message {msg!r}")

    def _process_read(self, row: int, msg: CoherenceMessage) -> None:
        i = msg.requester
        block = msg.block
        if self.profiler is not None:
            self.profiler.on_read(block, i)
        st = self._states[row]
        if self._is_update and self._upd_count[row]:
            # A consumer read reached home: the updates were consumed, so
            # the competitive hybrid's fallback budget starts over.
            self._upd_count[row] = 0
        if st <= DIR_SR:  # Uncached or Shared-Remote
            if st == DIR_U and self._grant_exclusive_read:
                # MESI: nobody holds the block, so grant the read
                # exclusively (the E state; realized as a clean
                # Migrating-coded line that promotes to Dirty silently).
                # The directory records ownership before the reply
                # leaves, so no MIack round is needed.
                done = self.memory.access(self.sim.now)
                self._c_exclusive_grants.inc()
                self._set_state(row, msg, DIR_DR)
                self._owners[row] = i
                self._sharers[row] = _NO_SHARERS
                self._lw[row] = i
                self._send_at(
                    done,
                    CoherenceMessage(
                        src=self.node, dst=i, kind=MsgKind.MACK,
                        block=block, requester=i, version=self._versions[row],
                        miack_needed=False, src_is_cache=False, trace=msg.trace,
                    ),
                )
                return
            done = self.memory.access(self.sim.now)
            self._set_state(row, msg, DIR_SR)
            sharers = self._sharers[row]
            if not sharers:
                self._sharers[row] = _ONE[i]
            else:
                if i not in sharers:
                    if len(sharers) > 2:
                        sharers.add(i)
                    elif len(sharers) == 2:  # a third sharer: the row's own set
                        self._sharers[row] = sharers = {*sharers, i}
                    else:  # a second reader: the interned pair
                        (first,) = sharers
                        self._sharers[row] = sharers = _pair(first, i)
                if len(sharers) > 2:
                    self._lw[row] = -1  # LW valid bit reset (paper Figure 4)
            self._send_at(
                done,
                CoherenceMessage(
                    src=self.node, dst=i, kind=MsgKind.RP,
                    block=block, requester=i, version=self._versions[row],
                    src_is_cache=False, trace=msg.trace,
                ),
            )
        elif st == DIR_MU:
            # Adaptive: serve the read with ownership directly from memory;
            # the requester installs the line in Migrating state.  The
            # directory is updated before the reply leaves, so no MIack
            # round is needed.
            done = self.memory.access(self.sim.now)
            self._set_state(row, msg, DIR_MD)
            self._owners[row] = i
            self._sharers[row] = _NO_SHARERS
            self._send_at(
                done,
                CoherenceMessage(
                    src=self.node, dst=i, kind=MsgKind.MACK,
                    block=block, requester=i, version=self._versions[row],
                    miack_needed=False, src_is_cache=False, trace=msg.trace,
                ),
            )
        elif st == DIR_DR:
            if self._owners[row] == i:
                self._wait_for_writeback(row, msg)
            else:
                self._forward(row, msg, MsgKind.FWD_RR, demote=False)
        elif st == DIR_MD:
            if self._owners[row] == i:
                self._wait_for_writeback(row, msg)
            else:
                self._c_migratory_reads.inc()
                self._forward(row, msg, MsgKind.MR, demote=False, for_write=False)
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"bad state {DIR_STATES_BY_CODE[st]} for {msg!r}")

    def _process_read_exclusive(self, row: int, msg: CoherenceMessage) -> None:
        i = msg.requester
        block = msg.block
        st = self._states[row]
        if st == DIR_U:
            done = self.memory.access(self.sim.now)
            self._set_state(row, msg, DIR_DR)
            self._owners[row] = i
            self._sharers[row] = _NO_SHARERS
            self._lw[row] = i
            self._record_inval_count(0, block, i)
            self._send_rxp(done, i, block, n_invals=0,
                           version=self._versions[row], trace=msg.trace)
        elif st == DIR_SR:
            sharers = self._sharers[row]
            others = sharers - {i}
            lw = self._lw[row]
            nominate = self.protocol.adaptive and should_nominate(
                len(sharers), i, None if lw < 0 else lw
            )
            done = self.memory.access(self.sim.now)
            if nominate:
                self._c_nominations.inc()
                self._set_state(row, msg, DIR_MD)
            else:
                self._set_state(row, msg, DIR_DR)
            self._owners[row] = i
            self._sharers[row] = _NO_SHARERS
            self._lw[row] = i
            self._record_inval_count(len(others), block, i)
            self._send_rxp(done, i, block, n_invals=len(others),
                           version=self._versions[row], trace=msg.trace)
            for sharer in others:
                self._c_invalidations_sent.inc()
                self._send_at(
                    done,
                    CoherenceMessage(
                        src=self.node, dst=sharer, kind=MsgKind.INV,
                        block=block, requester=i, src_is_cache=False,
                        trace=msg.trace,
                    ),
                )
        elif st == DIR_DR:
            if self._owners[row] == i:
                self._wait_for_writeback(row, msg)
            else:
                # The previous owner's copy is displaced: Gupta-Weber count
                # this as a single invalidation.
                self._record_inval_count(1, block, i)
                self._forward(row, msg, MsgKind.FWD_RXQ, demote=False)
        elif st == DIR_MD:
            if self._owners[row] == i:
                self._wait_for_writeback(row, msg)
            else:
                # First access by the new processor is a write (paper §3.4):
                # default policy keeps the block migratory and transfers
                # ownership; the heuristic demotes it to Dirty-Remote.
                demote = self.protocol.rxq_reverts_to_ordinary
                if demote:
                    self._c_rxq_demotions.inc()
                self._c_migratory_reads.inc()
                self._forward(row, msg, MsgKind.MR, demote=demote, for_write=True)
        elif st == DIR_MU:
            done = self.memory.access(self.sim.now)
            if self.protocol.rxq_reverts_to_ordinary:
                self._c_rxq_demotions.inc()
                self._set_state(row, msg, DIR_DR)
                self._lw[row] = i
            else:
                self._set_state(row, msg, DIR_MD)
            self._owners[row] = i
            self._sharers[row] = _NO_SHARERS
            self._send_rxp(done, i, block, n_invals=0,
                           version=self._versions[row], trace=msg.trace)
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"bad state {DIR_STATES_BY_CODE[st]} for {msg!r}")

    def _process_write_update(self, row: int, msg: CoherenceMessage) -> None:
        """Wu: a write-update protocol's store to a (potentially) shared line.

        Only a Shared-Remote line with *other* sharers takes the update
        path: the write commits at home (home memory is the Sm-equivalent
        ordering point, so home's version is always current in SR), the
        writer gets a Wup carrying the committed version and the Uack
        count, and every other sharer gets an in-place Upd.  Everything
        else — Uncached, sole sharer (Dragon's S→M upgrade: private data
        keeps writing locally), owned states (the writer's copy was
        displaced while the Wu was in flight), and the competitive
        hybrid's fallback — is exactly the read-exclusive flow.
        """
        i = msg.requester
        block = msg.block
        st = self._states[row]
        if st == DIR_SR:
            sharers = self._sharers[row]
            others = sharers - {i}
            if others:
                if self.protocol.use_update(len(others), self._upd_count[row]):
                    done = self.memory.access(self.sim.now)
                    if self.checker is not None:
                        version = self.checker.on_write(
                            i, block, self._versions[row]
                        )
                    else:
                        version = self._versions[row] + 1
                    self._versions[row] = version
                    self._upd_count[row] += 1
                    if i not in sharers:
                        if len(sharers) > 2:
                            sharers.add(i)
                        elif len(sharers) == 2:
                            self._sharers[row] = {*sharers, i}
                        else:
                            (first,) = sharers
                            self._sharers[row] = _pair(first, i)
                    self._record_inval_count(0, block, i)
                    self._send_at(
                        done,
                        CoherenceMessage(
                            src=self.node, dst=i, kind=MsgKind.WUP,
                            block=block, requester=i, version=version,
                            n_invals=len(others), src_is_cache=False,
                            trace=msg.trace,
                        ),
                    )
                    for sharer in others:
                        self._c_updates_sent.inc()
                        self._send_at(
                            done,
                            CoherenceMessage(
                                src=self.node, dst=sharer, kind=MsgKind.UPD,
                                block=block, requester=i, version=version,
                                src_is_cache=False, trace=msg.trace,
                            ),
                        )
                    return
                # Competitive budget exhausted: this line's sharers are
                # not reading the updates, so invalidate instead.
                self._c_update_fallbacks.inc()
                self._upd_count[row] = 0
        self._process_read_exclusive(row, msg)

    # ------------------------------------------------------------------
    # Owner responses
    # ------------------------------------------------------------------
    def _on_sharing_writeback(self, row: int, msg: CoherenceMessage) -> None:
        """Sw: owner downgraded to Shared after a forwarded read."""
        self._check_inflight(row, msg)
        self._set_state(row, msg, DIR_SR)
        self._versions[row] = msg.version
        self._sharers[row] = _pair(msg.src, msg.requester)
        self._owners[row] = -1
        # Two sharers: the LW valid bit survives (reset only above two).
        self._complete(row)

    def _on_ownership_transfer(self, row: int, msg: CoherenceMessage) -> None:
        """Xfer: owner passed its exclusive copy for a forwarded Rxq.

        Like the migratory DT flow, the new owner may not replace the
        block until this directory update is acknowledged — otherwise its
        writeback could reach home before the Xfer and corrupt the
        directory (found by the model checker in repro.verify).
        """
        self._check_inflight(row, msg)
        done = self.memory.directory_access(self.sim.now)
        self._set_state(row, msg, DIR_DR)
        self._owners[row] = msg.requester
        self._sharers[row] = _NO_SHARERS
        self._lw[row] = msg.requester
        self._send_at(
            done,
            CoherenceMessage(
                src=self.node, dst=msg.requester, kind=MsgKind.MIACK,
                block=msg.block, requester=msg.requester, src_is_cache=False,
                trace=msg.trace,
            ),
        )
        self._complete(row)

    def _on_dirty_transfer(self, row: int, msg: CoherenceMessage) -> None:
        """DT: migratory ownership moved to the requester (Figure 3)."""
        _inflight_msg, demote = self._check_inflight(row, msg)
        done = self.memory.directory_access(self.sim.now)
        if demote:
            self._set_state(row, msg, DIR_DR)
            self._lw[row] = msg.requester
        else:
            self._set_state(row, msg, DIR_MD)
        self._owners[row] = msg.requester
        self._sharers[row] = _NO_SHARERS
        # Home's directory is now updated; release the requester's
        # replacement lock (Figure 3's MIack).
        self._send_at(
            done,
            CoherenceMessage(
                src=self.node, dst=msg.requester, kind=MsgKind.MIACK,
                block=msg.block, requester=msg.requester, src_is_cache=False,
                trace=msg.trace,
            ),
        )
        self._complete(row)

    def _on_nomig(self, row: int, msg: CoherenceMessage) -> None:
        """NoMig: the owner refused migration (read-only sharing detected).

        Carries the writeback data (plays Sw's role); the block reverts to
        ordinary Shared-Remote and detection state is reset.
        """
        self._check_inflight(row, msg)
        self._c_nomig_reverts.inc()
        self._set_state(row, msg, DIR_SR)
        self._versions[row] = msg.version
        self._sharers[row] = _pair(msg.src, msg.requester)
        self._owners[row] = -1
        self._lw[row] = -1
        self._complete(row)

    def _on_nak(self, row: int, msg: CoherenceMessage) -> None:
        """The forward missed: the owner's writeback is in flight."""
        self._c_naks.inc()
        inflight_msg, _demote = self._check_inflight(row, msg)
        self._inflight[row] = None
        self._pending_of(row).appendleft(inflight_msg)
        if self._states[row] in HOME_VALID_CODES:
            # The writeback already landed; retry immediately.
            self._busy[row] = 0
            self._drain(row)
        else:
            self._awaiting[row] = 1

    def _on_writeback(self, row: int, msg: CoherenceMessage) -> None:
        """Replacement writeback of a Dirty or Migrating line."""
        owner = self._owners[row]
        st = self._states[row]
        if owner != msg.src:
            raise SimulationError(
                f"writeback for block {msg.block} from node {msg.src}, "
                f"but directory owner is {None if owner < 0 else owner} "
                f"(state {DIR_STATES_BY_CODE[st]})"
            )
        self._c_writebacks_received.inc()
        done = self.memory.access(self.sim.now)
        if st == DIR_DR:
            self._states[row] = DIR_U
        elif st == DIR_MD:
            # The nomination survives replacement (paper Section 3.3's
            # Migratory-Uncached state exists exactly for this).
            self._states[row] = DIR_MU
        else:  # pragma: no cover - owner check makes this unreachable
            raise SimulationError(f"writeback in state {DIR_STATES_BY_CODE[st]}")
        self._owners[row] = -1
        self._versions[row] = msg.version
        self._send_at(
            done,
            CoherenceMessage(
                src=self.node, dst=msg.src, kind=MsgKind.WACK,
                block=msg.block, requester=msg.src, src_is_cache=False,
            ),
        )
        if self._busy[row] and self._awaiting[row]:
            self._busy[row] = 0
            self._awaiting[row] = 0
            self._drain(row)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _forward(
        self,
        row: int,
        msg: CoherenceMessage,
        kind: MsgKind,
        *,
        demote: bool,
        for_write: bool = False,
    ) -> None:
        self._busy[row] = 1
        self._inflight[row] = (msg, demote)
        done = self.memory.directory_access(self.sim.now)
        self._send_at(
            done,
            CoherenceMessage(
                src=self.node, dst=self._owners[row], kind=kind,
                block=msg.block, requester=msg.requester,
                for_write=for_write, src_is_cache=False,
                trace=msg.trace,
            ),
        )

    def _wait_for_writeback(self, row: int, msg: CoherenceMessage) -> None:
        """The requester is the recorded owner: its writeback is in flight."""
        self._busy[row] = 1
        self._awaiting[row] = 1
        self._inflight[row] = None
        self._pending_of(row).appendleft(msg)

    def _check_inflight(
        self, row: int, msg: CoherenceMessage
    ) -> Tuple[CoherenceMessage, bool]:
        inflight = self._inflight[row]
        if not self._busy[row] or inflight is None:
            raise SimulationError(
                f"directory {self.node} got {msg!r} with no transaction in flight"
            )
        inflight_msg, demote = inflight
        if inflight_msg.block != msg.block or inflight_msg.requester != msg.requester:
            raise SimulationError(
                f"response {msg!r} does not match in-flight {inflight_msg!r}"
            )
        return inflight_msg, demote

    def _complete(self, row: int) -> None:
        self._busy[row] = 0
        self._inflight[row] = None
        self._drain(row)

    def _drain(self, row: int) -> None:
        pending = self._pending[row]
        if not pending:
            return
        busy = self._busy
        while pending and not busy[row]:
            self._process(row, pending.popleft())

    def _record_inval_count(
        self, count: int, block: Optional[int] = None, requester: Optional[int] = None
    ) -> None:
        """Histogram of invalidations per read-exclusive request.

        This is the invalidation-pattern analysis of Gupta & Weber that
        the paper's Section 2.1 builds on (migratory sharing shows up as
        a dominance of *single* invalidations).  Counts above 4 share one
        bucket.
        """
        bucket = count if count < 4 else 4
        self._c_inval_dist[bucket].inc()
        if self.profiler is not None and block is not None:
            self.profiler.on_write(block, requester, count)

    def _send_rxp(
        self, at: int, dst: int, block: int, *, n_invals: int, version: int,
        trace: int = 0,
    ) -> None:
        # Home updates the directory before replying, so no replacement
        # lock is needed (miack_needed=False); only owner-to-owner
        # transfers (FwdRxq / Mr) require the MIack round.
        self._send_at(
            at,
            CoherenceMessage(
                src=self.node, dst=dst, kind=MsgKind.RXP,
                block=block, requester=dst, version=version,
                n_invals=n_invals, miack_needed=False, src_is_cache=False,
                trace=trace,
            ),
        )

    def _send_at(self, time: int, msg: CoherenceMessage) -> None:
        self.sim.schedule_at(time, self.transport.send, msg)
