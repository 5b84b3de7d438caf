"""Machine assembly: wire every component into a runnable system.

:class:`Machine` builds the full DASH-like node set (processor, cache
controller, directory, bus, memory module) over the two-mesh fabric, runs
a set of workload programs to completion, and returns a
:class:`RunResult` with the execution-time breakdown, protocol counters,
and traffic statistics that the experiment harness consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.coherence.cache_ctrl import CacheController
from repro.coherence.checker import CoherenceChecker
from repro.coherence.directory import DirectoryController
from repro.coherence.messages import pool_check, pool_outstanding
from repro.coherence.transport import Transport
from repro.cpu.ops import Op
from repro.cpu.processor import Processor
from repro.cpu.sync import IdealSync
from repro.faults.plan import FaultPlan
from repro.machine.allocator import PagePlacement
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.memory.bus import LocalBus
from repro.memory.cache import CacheArray
from repro.memory.dram import MemoryModule
from repro.network.interface import Fabric
from repro.sim.engine import DeadlockError, Simulator
from repro.stats.counters import Counters

if TYPE_CHECKING:
    from repro.faults.diagnostics import DiagnosticDump


class Machine:
    """A complete simulated multiprocessor."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        self.sim = Simulator(
            max_events=cfg.max_events, watchdog_window=cfg.watchdog_window
        )
        self.sim.on_stall = lambda: self.diagnostic_dump("livelock")
        self.counters = Counters()
        #: Deterministic fault injector (None on the pristine default path).
        self.fault_plan = (
            FaultPlan(cfg.faults, counters=self.counters)
            if cfg.faults is not None and cfg.faults.active
            else None
        )
        self.fabric = Fabric(
            self.sim,
            cfg.mesh_width,
            cfg.mesh_height,
            link_bits=cfg.link_bits,
            fall_through=cfg.fall_through,
            interface_delay=cfg.interface_delay,
            infinite_bandwidth=cfg.infinite_bandwidth,
        )
        self.placement = PagePlacement(cfg.num_nodes, cfg.page_size, cfg.line_size)
        self.buses = [
            LocalBus(
                self.sim,
                arbitration=cfg.bus_arbitration,
                transfer=cfg.bus_transfer,
                width_bits=cfg.bus_width_bits,
                infinite_bandwidth=cfg.infinite_bandwidth,
                name=f"bus{n}",
            )
            for n in range(cfg.num_nodes)
        ]
        self.transport = Transport(
            self.sim, self.fabric, self.buses, line_bits=cfg.line_size * 8,
            faults=self.fault_plan,
        )
        self.checker = CoherenceChecker(enabled=cfg.check_coherence)
        # The observability layers below are opt-in, so each is imported
        # only by a machine that turns it on.
        self.block_profiler = None
        if cfg.profile_blocks:
            from repro.stats.block_profile import BlockProfiler

            self.block_profiler = BlockProfiler()
        #: Span tracer (None unless ``trace=True``: the hook sites in the
        #: transport and controllers then collapse to one ``is None`` test).
        self.tracer = None
        if cfg.trace:
            from repro.obs.tracer import TransactionTracer

            self.tracer = TransactionTracer(
                policy_name=cfg.policy.name, max_spans=cfg.trace_max_spans
            )
        self.transport.tracer = self.tracer
        #: Periodic metrics sampler (None unless ``metrics_interval`` set).
        self.metrics = None
        if cfg.metrics_interval:
            from repro.obs.timeseries import MetricsSampler

            self.metrics = MetricsSampler(
                self, cfg.metrics_interval, cfg.metrics_capacity
            )
        self.memories = [
            MemoryModule(
                self.sim,
                cycle=cfg.memory_cycle,
                directory_cycle=cfg.directory_cycle,
                infinite_bandwidth=cfg.infinite_bandwidth,
                name=f"dram{n}",
            )
            for n in range(cfg.num_nodes)
        ]
        if self.fault_plan is not None:
            for n in range(cfg.num_nodes):
                self.buses[n].slowdown = self.fault_plan.bus_slowdown(n)
                self.memories[n].slowdown = self.fault_plan.memory_slowdown(n)
        self.directories = [
            DirectoryController(
                n, self.sim, self.transport, self.memories[n], cfg.policy,
                self.counters, checker=self.checker,
                profiler=self.block_profiler, tracer=self.tracer,
            )
            for n in range(cfg.num_nodes)
        ]
        self.caches = [
            CacheController(
                n,
                self.sim,
                self.transport,
                CacheArray(cfg.cache_size, cfg.line_size, cfg.associativity),
                self.placement.home_of_block,
                cfg.policy,
                self.checker,
                self.counters,
                service_delay=cfg.cache_service_delay,
                faults=self.fault_plan,
                tracer=self.tracer,
            )
            for n in range(cfg.num_nodes)
        ]
        self.sync = IdealSync(self.sim, cfg.num_nodes)
        self.processors = [
            Processor(n, self.sim, self.caches[n], self.sync, cfg.consistency)
            for n in range(cfg.num_nodes)
        ]
        # Steady-state measurement support (StatsMark operations).
        self._mark_time = 0
        self._mark_arrivals = 0
        self._mark_waiters: List = []
        for processor in self.processors:
            processor.on_mark = self._on_mark

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------
    def run(self, programs: List[Iterator[Op]]) -> RunResult:
        """Run one program per processor to completion.

        ``programs`` must contain exactly ``num_nodes`` generators (use an
        empty generator for idle processors).
        """
        if len(programs) != self.config.num_nodes:
            raise ValueError(
                f"need {self.config.num_nodes} programs, got {len(programs)}"
            )
        # Leak guard (REPRO_POOL_DEBUG=1): every message retained past its
        # dispatch must be released by the end of a clean run, so any
        # retain/release imbalance accumulated by *this* run is a leak.
        pool_baseline = pool_outstanding()
        try:
            for processor, program in zip(self.processors, programs):
                processor.start(program)
            if self.metrics is not None:
                self.metrics.start()
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
            if pool_baseline is not None:
                pool_check(
                    pool_baseline,
                    context=f"clean end of run ({self.config.policy.name})",
                )
            return self._result()
        finally:
            self._release()

    def _release(self) -> None:
        """Unwire the finished machine so reference counting frees it.

        The components call each other through bound methods and
        closures, so an assembled machine is one reference cycle that
        only the cyclic garbage collector would free, long after its
        owner dropped it.  This clears the edges that close it: the
        stall hook and queued events, the processors' links, the
        controllers' dispatch tables, the transport's handler tables,
        the fault plan's binding, the sampler's machine and the cached
        entry and line views.  State, counters, the tracer and the
        sampler's rows stay readable (views re-materialize on demand);
        the machine just cannot run again.
        """
        self.sim.on_stall = None
        self.sim.clear()
        for processor in self.processors:
            processor.detach()
        for directory in self.directories:
            directory._dispatch = None
            directory._row_views = [None] * len(directory._blocks)
        for controller in self.caches:
            controller._dispatch = None
            controller.cache.drop_views()
        transport = self.transport
        transport._cache_handlers = transport._directory_handlers = []
        if self.fault_plan is not None:
            self.fault_plan._sim = self.fault_plan._send_now = None
        if self.metrics is not None:
            self.metrics.machine = None

    def diagnostic_dump(self, reason: str = "inspect") -> DiagnosticDump:
        """Structured snapshot of all transient machine state."""
        from repro.faults.diagnostics import dump_machine

        return dump_machine(self, reason)

    # ------------------------------------------------------------------
    # Steady-state measurement (StatsMark)
    # ------------------------------------------------------------------
    def _on_mark(self, node: int, resume) -> None:
        """A processor reached its StatsMark; resume all once everyone has."""
        self._mark_arrivals += 1
        self._mark_waiters.append(resume)
        if self._mark_arrivals == self.config.num_nodes:
            self.reset_stats()
            waiters, self._mark_waiters = self._mark_waiters, []
            self._mark_arrivals = 0
            for callback in waiters:
                self.sim.schedule(1, callback)

    def reset_stats(self) -> None:
        """Restart measurement: counters, traffic, and time breakdowns.

        Protocol and cache state stay warm — this is the paper's
        steady-state statistics acquisition (Section 4.3).
        """
        self._mark_time = self.sim.now
        self.counters.clear()
        self.checker.reset()
        self.transport.reset_stats()
        self.fabric.reset_stats()
        for processor in self.processors:
            processor.reset_breakdown()
        for bus in self.buses:
            bus.transactions = 0
        for memory in self.memories:
            memory.accesses = 0
            memory.directory_lookups = 0

    def _result(self) -> RunResult:
        finish_times = [p.finished_at for p in self.processors]
        return RunResult(
            execution_time=(max(finish_times) if finish_times else 0) - self._mark_time,
            breakdowns=[p.breakdown for p in self.processors],
            counters=self.counters,
            network_bits=self.transport.network_bits,
            network_messages=self.transport.network_messages,
            bits_by_kind={
                kind.value: bits for kind, bits in self.transport.bits_by_kind.items()
            },
            count_by_kind={
                kind.value: count
                for kind, count in self.transport.count_by_kind.items()
            },
            events_processed=self.sim.events_processed,
            policy_name=self.config.policy.name,
            consistency_name=self.config.consistency.name,
            latency=self.tracer.summary() if self.tracer is not None else None,
        )
