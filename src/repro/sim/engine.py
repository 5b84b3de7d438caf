"""Discrete-event simulation core.

The whole reproduction is driven by a single :class:`Simulator`: every
hardware component (processor, cache controller, directory, mesh router,
bus, DRAM bank) schedules callbacks on it.  Time is measured in *pclocks*
(processor clock cycles; the paper's unit, 1 pclock = 10 ns at 100 MHz).

Events with equal timestamps fire in FIFO order of scheduling, which makes
simulations fully deterministic for a given workload seed.

Queue structure
---------------

A clocked machine schedules most of its events a handful of distinct
timestamps ahead (bus grants, memory completions, link arrivals), so many
events share a timestamp.  The queue is therefore a *bucketed calendar*:
one deque of events per pending timestamp (FIFO within the bucket
preserves scheduling order exactly as the old ``(time, seq)`` heap
tie-break did), plus a small heap of the distinct timestamps themselves.
Scheduling into an existing bucket is a single ``append``; only the first
event at a new timestamp pays a ``heappush``.  An event scheduled with
zero delay while its own bucket is draining lands at the tail of the live
bucket and fires in the same pass — identical to the old heap's behaviour.

Event representation
--------------------

Each queued event is a ``(callback, args)`` pair rather than a zero-arg
closure: hot senders schedule ``sim.schedule_at(t, handler, msg)`` and pay
one small tuple instead of allocating a closure cell per message, and the
drain loop invokes ``callback(*args)`` directly.  Zero-arg callables keep
working unchanged (``args`` is just the empty tuple).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "DeadlockError",
    "LivelockError",
    "SimulationError",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state.

    ``dump`` optionally carries a structured
    :class:`~repro.faults.diagnostics.DiagnosticDump` describing the
    machine state at the moment of failure.
    """

    def __init__(self, message: str = "", dump: Optional[Any] = None) -> None:
        super().__init__(message)
        self.dump = dump


class DeadlockError(SimulationError):
    """Raised when the event queue drains while processors are still blocked."""


class LivelockError(SimulationError):
    """Raised by the progress watchdog: events keep firing but no
    processor has retired an operation within the configured window
    (e.g. an unbounded NAK retry storm)."""


class Simulator:
    """A deterministic event-driven simulator with an integer-friendly clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5]
    """

    __slots__ = (
        "now",
        "_buckets",
        "_times",
        "_size",
        "_running",
        "max_events",
        "events_processed",
        "last_progress",
        "watchdog_window",
        "on_stall",
    )

    def __init__(
        self,
        max_events: Optional[int] = None,
        watchdog_window: Optional[int] = None,
    ) -> None:
        #: Current simulated time in pclocks.  A plain attribute, not a
        #: property: it is read on every hot-path operation and a
        #: descriptor call per read showed up in profiles.  Treat it as
        #: read-only outside the simulator.
        self.now: int = 0
        #: Pending events, one FIFO deque of (callback, args) per timestamp.
        self._buckets: Dict[int, deque] = {}
        #: Heap of the distinct pending timestamps (each pushed once).
        self._times: List[int] = []
        self._size: int = 0
        self._running: bool = False
        #: Safety valve against livelock (e.g. unbounded NAK retry storms).
        self.max_events = max_events
        self.events_processed: int = 0
        #: Timestamp of the last forward-progress notification (processor
        #: op retirement); fed by :meth:`note_progress`.
        self.last_progress: int = 0
        #: Progress watchdog: if events keep firing but ``last_progress``
        #: falls more than this many pclocks behind ``now``, raise
        #: :class:`LivelockError`.  ``None`` disables the watchdog.
        self.watchdog_window = watchdog_window
        #: Optional zero-argument callable returning a diagnostic dump,
        #: invoked when the watchdog or the max_events valve trips.
        self.on_stall: Optional[Callable[[], Any]] = None

    def schedule(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` pclocks from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = bucket = deque()
            heappush(self._times, time)
        bucket.append((callback, args))
        self._size += 1

    def schedule_at(self, time: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute timestamp ``time >= now``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = bucket = deque()
            heappush(self._times, time)
        bucket.append((callback, args))
        self._size += 1

    def pending(self) -> int:
        """Number of events still queued."""
        return self._size

    def clear(self) -> None:
        """Drop every queued event (a run that stopped early leaves some)."""
        self._buckets.clear()
        self._times.clear()
        self._size = 0

    def run(self, until: Optional[int] = None) -> None:
        """Process events until the queue is empty or ``until`` is reached.

        The inner loop drains one timestamp bucket at a time: callbacks
        appended to the live bucket (zero-delay scheduling) fire in the
        same pass, after everything already queued at that timestamp —
        exactly the FIFO tie-break the old sequence-numbered heap gave.
        """
        self._running = True
        buckets = self._buckets
        times = self._times
        max_events = self.max_events
        watchdog = self.watchdog_window
        unlimited = max_events is None and watchdog is None
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    break
                # The bucket stays registered while it drains, so zero-delay
                # scheduling during the drain appends to it and fires in the
                # same pass; a callback that raises leaves the remainder
                # queued and the calendar consistent.
                bucket = buckets[time]
                self.now = time
                if unlimited:
                    # Hot path: no safety valves, count in bulk per bucket.
                    popleft = bucket.popleft
                    processed = 0
                    try:
                        while bucket:
                            processed += 1
                            callback, args = popleft()
                            callback(*args)
                    finally:
                        self._size -= processed
                        self.events_processed += processed
                else:
                    popleft = bucket.popleft
                    while bucket:
                        callback, args = popleft()
                        self._size -= 1
                        self._count_event()
                        callback(*args)
                heappop(times)
                del buckets[time]
            if until is not None and self.now < until and not times:
                self.now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Process a single event.  Returns False if the queue was empty.

        Step-driven loops get the same ``max_events`` livelock guard as
        :meth:`run`.
        """
        while self._times:
            time = self._times[0]
            bucket = self._buckets[time]
            if not bucket:
                # An interrupted run() can leave a drained bucket registered.
                heappop(self._times)
                del self._buckets[time]
                continue
            callback, args = bucket.popleft()
            self._size -= 1
            if not bucket:
                heappop(self._times)
                del self._buckets[time]
            self.now = time
            self._count_event()
            callback(*args)
            return True
        return False

    def note_progress(self) -> None:
        """Record forward progress (a processor retired an operation)."""
        self.last_progress = self.now

    def _stall_dump(self) -> Optional[Any]:
        return self.on_stall() if self.on_stall is not None else None

    def _count_event(self) -> None:
        """Count one processed event, enforcing the livelock safety valves."""
        self.events_processed += 1
        if self.max_events is not None and self.events_processed > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                "likely a protocol livelock",
                dump=self._stall_dump(),
            )
        if (
            self.watchdog_window is not None
            and self.now - self.last_progress > self.watchdog_window
        ):
            dump = self._stall_dump()
            message = (
                f"progress watchdog: no processor retired an operation for "
                f"{self.now - self.last_progress} pclocks "
                f"(window {self.watchdog_window}, last progress at "
                f"t={self.last_progress}, now t={self.now})"
            )
            if dump is not None:
                message += "\n" + dump.render()
            raise LivelockError(message, dump=dump)
