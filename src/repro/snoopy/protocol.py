"""Snoopy write-invalidate protocol with the adaptive migratory extension.

State per cache line is the same quartet as the CC-NUMA machine —
Invalid / Shared / Dirty / Migrating — and nomination calls the same
predicate, :func:`repro.core.detection.should_nominate`: the memory
controller sees every bus transaction, exactly as a home directory sees
every request, so nomination fires under the identical N==2 ∧ LW≠i
condition, and a nominated block's BusRd is converted into a
read-for-ownership.  The controller keeps LW as the directory does: a
write records its writer, and a third sharer or a NoMig resets it.

Because bus transactions are atomic, there are no transient states and
no races: each processor operation that misses performs one bus
transaction and completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.coherence.checker import CoherenceChecker
from repro.core.detection import should_nominate
from repro.core.policy import ProtocolPolicy
from repro.memory.cache import CacheArray, CacheState
from repro.protocols import behavior_for
from repro.sim.engine import SimulationError, Simulator
from repro.snoopy.bus import BusOp, SnoopBus
from repro.stats.counters import Counters

DoneCallback = Callable[[], None]

#: The protocols the bus machine implements: W-I and AD with its two
#: ablations.  It has no E state and no update flow.
BUS_PROTOCOLS = ("W-I", "AD", "AD-RXQ", "AD-NONOMIG")


@dataclass
class BlockInfo:
    """Memory-controller-side state for one block (the 'home' view)."""

    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    #: Last writer, or None while its valid bit is reset.
    lw: Optional[int] = None
    migratory: bool = False
    version: int = 0
    #: The migratory owner has written since acquiring the block.
    owner_wrote: bool = False


class SnoopySystemState:
    """Shared protocol state: the caches, the bus, and the block table."""

    def __init__(
        self,
        sim: Simulator,
        bus: SnoopBus,
        policy: ProtocolPolicy,
        checker: CoherenceChecker,
        counters: Counters,
    ) -> None:
        if policy.name not in BUS_PROTOCOLS:
            raise ValueError(
                f"the bus machine runs {', '.join(BUS_PROTOCOLS)}, "
                f"not {policy.name}"
            )
        self.sim = sim
        self.bus = bus
        #: Behavior object whose migratory hooks switch detection.
        self.protocol = behavior_for(policy)
        self.checker = checker
        self.counters = counters
        self.blocks: Dict[int, BlockInfo] = {}
        self.caches: List["SnoopyCache"] = []
        # Pre-resolved integer-slot counter handles shared by every cache
        # on the bus (hot path: no string hashing per reference).
        for name in (
            "read_hits", "read_misses", "write_hits", "write_misses",
            "write_upgrades", "migrating_promotions", "rr_received",
            "rxq_received", "nominations", "rxq_demotions", "nomig_reverts",
            "migratory_reads", "invalidations_sent", "writebacks",
            "evictions_clean",
        ):
            setattr(self, "c_" + name, counters.handle(name))
        #: Gupta-Weber invalidation histogram, one handle per bucket (0-4).
        self.c_inval_dist = [
            counters.handle(f"inval_dist_{bucket}") for bucket in range(5)
        ]

    def block(self, block: int) -> BlockInfo:
        info = self.blocks.get(block)
        if info is None:
            info = BlockInfo()
            self.blocks[block] = info
        return info


class SnoopyCache:
    """One processor's cache on the snooping bus.

    Exposes the same ``read`` / ``write`` / ``outstanding`` interface as
    the CC-NUMA :class:`~repro.coherence.cache_ctrl.CacheController`, so
    the unmodified :class:`~repro.cpu.processor.Processor` drives it.
    """

    def __init__(
        self,
        node: int,
        system: SnoopySystemState,
        cache: CacheArray,
    ) -> None:
        self.node = node
        self.system = system
        self.cache = cache
        self.sim = system.sim
        #: Blocks with a bus transaction in flight: block -> waiters.
        self._pending: Dict[int, List[Tuple[str, DoneCallback]]] = {}
        system.caches.append(self)

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def read(self, addr: int, done: DoneCallback) -> None:
        block = self.cache.block_of(addr)
        if block in self._pending:
            self._pending[block].append(("r", done))
            return
        line = self.cache.lookup(block)
        if line is not None:
            self.cache.touch(line)
            self.system.c_read_hits.inc()
            self.system.checker.on_read(self.node, block, line.version)
            done()
            return
        self.system.c_read_misses.inc()
        self._pending[block] = []
        self._transact_read(block, done)

    def write(self, addr: int, done: DoneCallback) -> None:
        block = self.cache.block_of(addr)
        if block in self._pending:
            self._pending[block].append(("w", done))
            return
        line = self.cache.lookup(block)
        if line is not None and line.state in (CacheState.DIRTY, CacheState.MIGRATING):
            if line.state is CacheState.MIGRATING:
                self.system.c_migrating_promotions.inc()
                line.state = CacheState.DIRTY
                self.system.block(block).owner_wrote = True
            self.cache.touch(line)
            self.system.c_write_hits.inc()
            line.version = self.system.checker.on_write(
                self.node, block, line.version
            )
            done()
            return
        upgrade = line is not None
        (self.system.c_write_upgrades if upgrade
         else self.system.c_write_misses).inc()
        self._pending[block] = []
        self._transact_write(block, done, upgrade=upgrade)

    def outstanding(self) -> int:
        return len(self._pending)

    def prefetch_exclusive(self, addr: int) -> bool:  # pragma: no cover - parity
        """Prefetch is a no-op on the atomic bus (kept for interface parity)."""
        return False

    # ------------------------------------------------------------------
    # Bus transactions
    # ------------------------------------------------------------------
    def _transact_read(self, block: int, done: DoneCallback) -> None:
        info = self.system.block(block)
        self.system.c_rr_received.inc()

        # Timing guess at arbitration time (semantic decisions are made at
        # the grant, in bus order, because intervening transactions may
        # change ownership).
        sourced_by_cache = info.owner is not None
        end = self.system.bus.acquire(BusOp.RD, sourced_by_cache)

        def complete() -> None:
            owner_cache = (
                self.system.caches[info.owner]
                if info.owner is not None and info.owner != self.node
                else None
            )
            line_owner = (
                owner_cache.cache.lookup(block) if owner_cache is not None else None
            )
            if line_owner is not None:
                migrate = False
                if info.migratory:
                    if not info.owner_wrote and self.system.protocol.nomig_enabled:
                        # NoMig: the owner never wrote — read-only sharing;
                        # revert the block to ordinary (Section 3.4).
                        self.system.c_nomig_reverts.inc()
                        info.migratory = False
                        info.lw = None
                    else:
                        migrate = True
                        self.system.c_migratory_reads.inc()
                info.version = line_owner.version
                self.system.checker.release_writable(owner_cache.node, block)
                if migrate:
                    # Read-for-ownership: the owner hands the block over.
                    line_owner.invalidate()
                    owner_cache._note_inv(block)
                    info.owner = self.node
                    info.owner_wrote = False
                    info.sharers = set()
                    self._install(block, CacheState.MIGRATING, info.version)
                    self._finish(block, done, is_write=False)
                    return
                # Ordinary dirty snoop: owner downgrades to Shared.
                line_owner.state = CacheState.SHARED
                info.sharers = {owner_cache.node}
                info.owner = None
            elif info.migratory and info.owner is None:
                # Migratory block resident in memory: hand out ownership
                # directly (the Migratory-Uncached behaviour).
                info.owner = self.node
                info.owner_wrote = False
                info.sharers = set()
                self._install(block, CacheState.MIGRATING, info.version)
                self._finish(block, done, is_write=False)
                return
            info.sharers.add(self.node)
            if len(info.sharers) > 2:
                info.lw = None
            self._install(block, CacheState.SHARED, info.version)
            self._finish(block, done, is_write=False)

        self.sim.schedule_at(end, complete)

    def _transact_write(
        self, block: int, done: DoneCallback, *, upgrade: bool
    ) -> None:
        info = self.system.block(block)
        self.system.c_rxq_received.inc()

        op = BusOp.UPGR if upgrade else BusOp.RDX
        end = self.system.bus.acquire(op, info.owner is not None)

        def complete() -> None:
            # Detection at the memory controller, in bus order: the same
            # condition as the directory machine (N==2 and LW != i).
            if self.system.protocol.adaptive and not info.migratory:
                if should_nominate(len(info.sharers), self.node, info.lw):
                    self.system.c_nominations.inc()
                    info.migratory = True
            elif info.migratory and self.system.protocol.rxq_reverts_to_ordinary:
                self.system.c_rxq_demotions.inc()
                info.migratory = False

            # Invalidate every other copy (the snoop).
            invalidated = 0
            for cache in self.system.caches:
                if cache is self:
                    continue
                line = cache.cache.lookup(block)
                if line is not None:
                    if line.state in (CacheState.DIRTY, CacheState.MIGRATING):
                        self.system.checker.release_writable(cache.node, block)
                        info.version = line.version
                    line.invalidate()
                    cache._note_inv(block)
                    invalidated += 1
            bucket = invalidated if invalidated < 4 else 4
            self.system.c_inval_dist[bucket].inc()
            self.system.c_invalidations_sent.inc(invalidated)
            info.sharers = set()
            info.owner = self.node
            info.owner_wrote = True
            info.lw = self.node

            line = self.cache.lookup(block)
            if line is None:
                line = self._install(block, CacheState.DIRTY, info.version)
            else:
                line.state = CacheState.DIRTY
                self.cache.touch(line)
                self.system.checker.acquire_writable(self.node, block)
            line.version = self.system.checker.on_write(
                self.node, block, line.version
            )
            self._finish(block, done, is_write=True)

        self.sim.schedule_at(end, complete)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _install(self, block: int, state: CacheState, version: int):
        victim = self.cache.victim_for(block)
        if victim.valid:
            victim_block = self.cache.block_from(
                victim.tag, self.cache.set_index(block)
            )
            if victim.state in (CacheState.DIRTY, CacheState.MIGRATING):
                self.system.c_writebacks.inc()
                info = self.system.block(victim_block)
                info.version = victim.version
                info.owner = None
                self.system.checker.release_writable(self.node, victim_block)
                self.system.bus.acquire(BusOp.WB, True)
            else:
                self.system.c_evictions_clean.inc()
                self.system.block(victim_block).sharers.discard(self.node)
            victim.invalidate()
        line = self.cache.install(block, state, version)
        if state in (CacheState.DIRTY, CacheState.MIGRATING):
            self.system.checker.acquire_writable(self.node, block)
        if state is not CacheState.DIRTY:
            self.system.checker.on_read(self.node, block, version)
        return line

    def _note_inv(self, block: int) -> None:
        """A snoop invalidated this cache's copy while ops may be queued."""
        # Queued processor operations re-execute after the current
        # transaction completes; nothing to do here (kept as a hook for
        # symmetry with the directory machine's classification).

    def _finish(self, block: int, done: DoneCallback, *, is_write: bool) -> None:
        waiters = self._pending.pop(block, [])
        done()
        for op, callback in waiters:
            if op == "r":
                self.read(block * self.cache.line_bytes, callback)
            else:
                self.write(block * self.cache.line_bytes, callback)
