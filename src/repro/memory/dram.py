"""Node memory module (DRAM) and its directory storage access port.

The paper assumes a 100 ns memory cycle time including buffering — 10
pclocks at the 100 MHz processor clock.  Directory state is held in the
same module; a directory lookup that does not need the data array (e.g. a
forward to a dirty owner) pays a shorter directory cycle.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.resource import Resource


class MemoryModule:
    """One node's share of distributed shared memory."""

    def __init__(
        self,
        sim: Simulator,
        *,
        cycle: int = 10,
        directory_cycle: int = 2,
        infinite_bandwidth: bool = False,
        name: str = "dram",
    ) -> None:
        self.sim = sim
        self.cycle = cycle
        self.directory_cycle = directory_cycle
        from repro.sim.resource import InfiniteResource

        self.resource = InfiniteResource(name) if infinite_bandwidth else Resource(name)
        #: Occupancy multiplier (>= 1); fault plans slow whole nodes down
        #: by raising this.
        self.slowdown = 1

    def access(self, earliest: int) -> int:
        """Full data-array access (read line or write line); returns end time."""
        cycle = self.cycle if self.slowdown == 1 else self.cycle * self.slowdown
        return self.resource.reserve(earliest, cycle) + cycle

    def directory_access(self, earliest: int) -> int:
        """Directory-only lookup/update; returns end time."""
        cycle = (
            self.directory_cycle
            if self.slowdown == 1
            else self.directory_cycle * self.slowdown
        )
        return self.resource.reserve(earliest, cycle) + cycle
