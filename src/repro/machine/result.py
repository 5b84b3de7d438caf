"""The outcome of one simulation run.

:class:`RunResult` is what :meth:`repro.machine.system.Machine.run`
returns and what the result store, the parallel runner and the serve
daemon pass around.  It lives apart from the machine so those layers can
rebuild and compare results without importing the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.stats.breakdown import StallBreakdown
from repro.stats.counters import Counters


@dataclass
class RunResult:
    """Everything a simulation run produced."""

    execution_time: int
    breakdowns: List[StallBreakdown]
    counters: Counters
    network_bits: int
    network_messages: int
    bits_by_kind: Dict[str, int]
    count_by_kind: Dict[str, int]
    events_processed: int
    policy_name: str
    consistency_name: str
    #: Miss-latency attribution summary (``TransactionTracer.summary()``)
    #: when the machine was built with ``trace=True``; None otherwise.
    latency: Optional[Dict] = None

    @property
    def aggregate_breakdown(self) -> StallBreakdown:
        return StallBreakdown.aggregate(self.breakdowns)

    def counter(self, name: str) -> int:
        return self.counters.get(name)
