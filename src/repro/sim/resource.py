"""FIFO resource reservation.

Contention at buses, memory banks, and mesh links is modeled with
*reservation semantics*: a client asks the resource for a slot of a given
duration starting no earlier than some time, and the resource returns the
actual start time — the maximum of the requested time and the time at which
the resource becomes free.  Because the event engine dispatches events in
timestamp order, reservations are made in chronological order of the
*requesting* events, which yields a consistent FIFO-per-arrival-time model
without simulating every flit individually.

This is the standard "occupancy" approximation used by architecture
simulators when full cycle-accuracy is not required; the paper models
contention "at the memory modules, the local buses, and the mesh networks",
which this captures.

A resource never forgets a reservation: the StatsMark restarts the
machine's counters, not its resources, so a message sent after the mark
still queues behind one crossing the same link, and ``busy_time`` only
grows (the metrics sampler's windowed occupancy is its difference).
"""

from __future__ import annotations


class Resource:
    """A single-server FIFO resource (one bus, one DRAM bank, one link)."""

    __slots__ = ("name", "_free_at", "busy_time")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._free_at: int = 0
        #: Total time this resource spent occupied (for utilization stats).
        self.busy_time: int = 0

    @property
    def free_at(self) -> int:
        """Earliest time a new reservation could begin."""
        return self._free_at

    def reserve(self, earliest: int, duration: int) -> int:
        """Reserve the resource for ``duration`` pclocks.

        Returns the granted start time (``>= earliest``).  The caller is
        responsible for scheduling whatever happens at
        ``start + duration``.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        start = self._free_at if self._free_at > earliest else earliest
        self._free_at = start + duration
        self.busy_time += duration
        return start

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` pclocks the resource was occupied."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, free_at={self._free_at})"


class InfiniteResource(Resource):
    """A resource with unbounded bandwidth (zero occupancy, zero queueing).

    Used for the paper's "WO No Cont." experiment (Figure 6): the same
    topology and per-hop latency, but no contention.
    """

    __slots__ = ()

    def reserve(self, earliest: int, duration: int) -> int:
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        return earliest
