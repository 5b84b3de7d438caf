"""Split-transaction local bus.

Each node connects its processor cache, memory module, and network
interface with a 128-bit split-transaction bus (paper Section 4.2): 50 MHz,
20 ns arbitration + 20 ns transfer, i.e. 2 + 2 pclocks at the 100 MHz
processor clock.  A 16-byte line moves in a single 128-bit beat.

Being split-transaction, the bus is held only for the arbitration+transfer
slot of each message, not across the full memory access.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.resource import Resource


class LocalBus:
    """One node's local bus, modeled as a FIFO resource."""

    def __init__(
        self,
        sim: Simulator,
        *,
        arbitration: int = 2,
        transfer: int = 2,
        width_bits: int = 128,
        infinite_bandwidth: bool = False,
        name: str = "bus",
    ) -> None:
        self.sim = sim
        self.arbitration = arbitration
        self.transfer = transfer
        self.width_bits = width_bits
        from repro.sim.resource import InfiniteResource

        self.resource = InfiniteResource(name) if infinite_bandwidth else Resource(name)
        #: True when the resource is a plain FIFO Resource, letting
        #: transact() inline the reservation arithmetic.
        self._finite = not infinite_bandwidth
        #: Occupancy multiplier (>= 1); fault plans slow whole nodes down
        #: by raising this.
        self.slowdown = 1

    def transact(self, earliest: int, bits: int = 0) -> int:
        """Reserve one bus transaction; return its completion time.

        ``bits`` is the payload size (0 for address-only transactions such
        as requests); the slot is arbitration plus one transfer per beat.
        """
        beats = 1 if bits <= 0 else -(-bits // self.width_bits)
        duration = self.arbitration + self.transfer * beats
        if self.slowdown != 1:
            duration *= self.slowdown
        if not self._finite:
            return earliest + duration
        # Inlined Resource.reserve (same FIFO arithmetic) — this is one of
        # the hottest calls in the whole simulator.
        resource = self.resource
        free_at = resource._free_at
        start = free_at if free_at > earliest else earliest
        resource._free_at = start + duration
        resource.busy_time += duration
        return start + duration
