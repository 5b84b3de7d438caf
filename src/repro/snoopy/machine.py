"""Bus-based multiprocessor assembly (the paper's Section 6 variant).

Reuses the processor model, ideal synchronization, workloads, counters,
and coherence checker of the CC-NUMA machine — only the memory system
differs: one shared snooping bus instead of directories and meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.coherence.checker import CoherenceChecker
from repro.consistency.models import ConsistencyModel, SEQUENTIAL_CONSISTENCY
from repro.core.policy import ProtocolPolicy
from repro.cpu.ops import Op
from repro.cpu.processor import Processor
from repro.cpu.sync import IdealSync
from repro.faults.diagnostics import DiagnosticDump, dump_snoopy
from repro.memory.cache import CacheArray
from repro.sim.engine import DeadlockError, Simulator
from repro.snoopy.bus import BusTiming, SnoopBus
from repro.snoopy.protocol import SnoopyCache, SnoopySystemState
from repro.stats.breakdown import StallBreakdown
from repro.stats.counters import Counters


@dataclass(frozen=True)
class SnoopyConfig:
    """Bus-based machine parameters."""

    num_processors: int = 8
    cache_size: int = 64 * 1024
    line_size: int = 16
    associativity: int = 1
    bus_timing: BusTiming = field(default_factory=BusTiming)
    policy: ProtocolPolicy = field(default_factory=ProtocolPolicy)
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY
    check_coherence: bool = True
    #: Progress watchdog window in pclocks (None = disabled); see
    #: :class:`~repro.machine.config.MachineConfig.watchdog_window`.
    watchdog_window: Optional[int] = None


@dataclass
class SnoopyRunResult:
    execution_time: int
    breakdowns: List[StallBreakdown]
    counters: Counters
    bus_transactions: int
    bus_bits: int
    bus_utilization: float

    @property
    def aggregate_breakdown(self) -> StallBreakdown:
        return StallBreakdown.aggregate(self.breakdowns)

    def counter(self, name: str) -> int:
        return self.counters.get(name)


class SnoopyMachine:
    """N processors on one snooping bus."""

    def __init__(self, config: Optional[SnoopyConfig] = None) -> None:
        self.config = config or SnoopyConfig()
        cfg = self.config
        self.sim = Simulator(watchdog_window=cfg.watchdog_window)
        self.sim.on_stall = lambda: self.diagnostic_dump("livelock")
        self.counters = Counters()
        self.checker = CoherenceChecker(enabled=cfg.check_coherence)
        self.bus = SnoopBus(self.sim, cfg.bus_timing)
        self.system = SnoopySystemState(
            self.sim, self.bus, cfg.policy, self.checker, self.counters
        )
        self.caches = [
            SnoopyCache(
                n,
                self.system,
                CacheArray(cfg.cache_size, cfg.line_size, cfg.associativity),
            )
            for n in range(cfg.num_processors)
        ]
        self.sync = IdealSync(self.sim, cfg.num_processors)
        self.processors = [
            Processor(n, self.sim, self.caches[n], self.sync, cfg.consistency)
            for n in range(cfg.num_processors)
        ]

    def run(self, programs: List[Iterator[Op]]) -> SnoopyRunResult:
        if len(programs) != self.config.num_processors:
            raise ValueError(
                f"need {self.config.num_processors} programs, got {len(programs)}"
            )
        try:
            for processor, program in zip(self.processors, programs):
                processor.start(program)
            self.sim.run()
            unfinished = [p.node for p in self.processors if not p.done]
            if unfinished:
                dump = self.diagnostic_dump("deadlock")
                raise DeadlockError(
                    f"event queue drained but processors {unfinished} never "
                    "finished (protocol or synchronization deadlock)\n"
                    + dump.render(),
                    dump=dump,
                )
            execution_time = max(p.finished_at for p in self.processors)
            return SnoopyRunResult(
                execution_time=execution_time,
                breakdowns=[p.breakdown for p in self.processors],
                counters=self.counters,
                bus_transactions=self.bus.transactions,
                bus_bits=self.bus.bits,
                bus_utilization=self.bus.utilization(max(1, execution_time)),
            )
        finally:
            self._release()

    def _release(self) -> None:
        """Unwire the finished machine so reference counting frees it,
        by the rule of :meth:`repro.machine.system.Machine._release`."""
        self.sim.on_stall = None
        self.sim.clear()
        for processor in self.processors:
            processor.detach()
        self.system.caches = []
        for cache in self.caches:
            cache.cache.drop_views()

    def diagnostic_dump(self, reason: str = "inspect") -> DiagnosticDump:
        """Structured snapshot of all transient machine state."""
        return dump_snoopy(self, reason)
