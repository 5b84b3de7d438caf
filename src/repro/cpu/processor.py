"""Program-driven processor model.

Each processor executes a workload *program* — a generator yielding the
operations of :mod:`repro.cpu.ops` — and advances simulated time through
the cache controller, the ideal synchronization manager, and the chosen
consistency model.  Because the generator is only advanced as simulated
time progresses, the reference interleaving reacts to architectural timing
exactly as in the paper's program-driven CacheMire test bench (Section
4.1), in contrast to trace-driven simulation.

Time accounting (Figure 5's categories):

* ``busy``        — compute cycles plus one pclock per memory reference
                    (the cache access itself);
* ``read_stall``  — cycles a read waited beyond the cache access;
* ``write_stall`` — cycles a write waited (zero under weak ordering
                    except when classified elsewhere);
* ``sync_stall``  — lock waits, barrier waits, and weak-ordering fences.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.coherence.cache_ctrl import CacheController
from repro.consistency.models import ConsistencyModel
from repro.cpu.ops import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_LOCK,
    OP_MARK,
    OP_PREFETCH_EX,
    OP_READ,
    OP_UNLOCK,
    OP_WRITE,
    Op,
)
from repro.cpu.sync import IdealSync
from repro.sim.engine import SimulationError, Simulator
from repro.stats.breakdown import StallBreakdown


class Processor:
    """One node's processor executing a workload program."""

    def __init__(
        self,
        node: int,
        sim: Simulator,
        cache: CacheController,
        sync: IdealSync,
        model: ConsistencyModel,
        on_finish: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.node = node
        self.sim = sim
        self.cache = cache
        self.sync = sync
        self.model = model
        self.on_finish = on_finish
        self.breakdown = StallBreakdown()
        self.finished_at: Optional[int] = None
        self.references = 0
        #: Set by the machine: called with a resume callback when the
        #: program executes a StatsMark (end-of-warmup) operation.
        self.on_mark: Optional[Callable[[int, Callable[[], None]], None]] = None
        self._program: Optional[Iterator[Op]] = None
        self._outstanding = 0
        self._fence_waiter: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self, program: Iterator[Op]) -> None:
        if self._program is not None:
            raise SimulationError(f"processor {self.node} already running")
        self._program = program
        self.sim.schedule(0, self._advance)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def detach(self) -> None:
        """Drop the links back into the machine once the run is over.

        Every continuation this processor parks elsewhere (an MSHR or
        sync waiter, a fence) closes over it, so after a run that
        stopped early these links close a reference cycle."""
        self.on_mark = self._fence_waiter = None
        self.cache = self.sync = None

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        # Reaching here means the previous operation retired: feed the
        # simulator's progress watchdog (plain store; cheapest possible).
        sim = self.sim
        sim.last_progress = sim.now
        try:
            code, arg = next(self._program)
        except StopIteration:
            self._finish()
            return

        if code == OP_COMPUTE:
            self.breakdown.busy += arg
            self.sim.schedule(arg, self._advance)
        elif code == OP_READ:
            self._do_read(arg)
        elif code == OP_WRITE:
            self._do_write(arg)
        elif code == OP_LOCK:
            self._with_fence(
                lambda t0: self._do_lock(arg, t0), self.model.fence_at_acquire
            )
        elif code == OP_UNLOCK:
            self._with_fence(
                lambda t0: self._do_unlock(arg, t0), self.model.fence_at_release
            )
        elif code == OP_BARRIER:
            self._with_fence(
                lambda t0: self._do_barrier(arg, t0), self.model.fence_at_release
            )
        elif code == OP_PREFETCH_EX:
            # Non-binding: one issue cycle, never stalls, never fenced.
            self.cache.prefetch_exclusive(arg)
            self.breakdown.busy += 1
            self.sim.schedule(1, self._advance)
        elif code == OP_MARK:
            self._with_fence(lambda t0: self._do_mark(), True)
        else:
            raise SimulationError(f"processor {self.node}: bad opcode {code}")

    def _finish(self) -> None:
        if self._outstanding > 0:
            # Drain outstanding writes (weak ordering) before completing.
            start = self.sim.now
            self._fence_waiter = lambda: self._record_finish(start)
            return
        self._record_finish(self.sim.now)

    def _record_finish(self, fence_start: int) -> None:
        self.breakdown.sync_stall += self.sim.now - fence_start
        self.finished_at = self.sim.now
        if self.on_finish is not None:
            self.on_finish(self.node)

    # ------------------------------------------------------------------
    # Memory references
    # ------------------------------------------------------------------
    def _do_read(self, addr: int) -> None:
        self.references += 1
        t0 = self.sim.now

        def done() -> None:
            self.breakdown.read_stall += self.sim.now - t0
            self.breakdown.busy += 1
            self.sim.schedule(1, self._advance)

        self.cache.read(addr, done)

    def _do_write(self, addr: int) -> None:
        self.references += 1
        t0 = self.sim.now

        if self.model.write_blocks:
            def done() -> None:
                self.breakdown.write_stall += self.sim.now - t0
                self.breakdown.busy += 1
                self.sim.schedule(1, self._advance)

            self.cache.write(addr, done)
            return

        # Weak ordering: issue and continue; the lockup-free cache tracks
        # the request and the fence at the next synchronization waits.
        state = {"sync": True, "hit": False}

        def done() -> None:
            if state["sync"]:
                state["hit"] = True
                return
            self._outstanding -= 1
            if self._outstanding == 0 and self._fence_waiter is not None:
                waiter, self._fence_waiter = self._fence_waiter, None
                waiter()

        self.cache.write(addr, done)
        state["sync"] = False
        if not state["hit"]:
            self._outstanding += 1
        self.breakdown.busy += 1
        self.sim.schedule(1, self._advance)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def _with_fence(self, action: Callable[[int], None], fence: bool) -> None:
        t0 = self.sim.now
        if fence and self._outstanding > 0:
            if self._fence_waiter is not None:  # pragma: no cover
                raise SimulationError(f"processor {self.node}: nested fence")
            self._fence_waiter = lambda: action(t0)
        else:
            action(t0)

    def _do_lock(self, lock_id: int, t0: int) -> None:
        def granted() -> None:
            self.breakdown.sync_stall += self.sim.now - t0
            self._advance()

        self.sync.acquire(self.node, lock_id, granted)

    def _do_unlock(self, lock_id: int, t0: int) -> None:
        self.sync.release(self.node, lock_id)
        self.breakdown.sync_stall += self.sim.now - t0
        self.breakdown.busy += 1  # the single-cycle release itself
        self.sim.schedule(1, self._advance)

    def _do_barrier(self, barrier_id: int, t0: int) -> None:
        def released() -> None:
            self.breakdown.sync_stall += self.sim.now - t0
            self._advance()

        self.sync.barrier(self.node, barrier_id, released)

    def _do_mark(self) -> None:
        if self.on_mark is None:
            # No machine-level mark handling: behave as a no-op.
            self._advance()
            return
        self.on_mark(self.node, self._advance)

    def reset_breakdown(self) -> None:
        """Zero the time accounting (end of warmup)."""
        self.breakdown = StallBreakdown()
        self.references = 0

    def introspect(self) -> dict:
        """Execution-state snapshot for diagnostic dumps."""
        return {
            "node": self.node,
            "done": self.done,
            "finished_at": self.finished_at,
            "references": self.references,
            "outstanding_writes": self._outstanding,
            "fence_waiting": self._fence_waiter is not None,
        }
