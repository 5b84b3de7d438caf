"""Outside-in per-layer timing: wrappers on the simulator's public methods.

A :class:`Recorder` replaces each target method on its *class* with a
wrapper that counts calls and accumulates self time: a call's own
duration minus the time covered by wrapped calls nested inside it.  The
wrappers must be installed before any ``Machine`` is built, because the
controllers bind handlers such as ``CacheController.handle`` into
kind-indexed tables at construction; patching instances afterwards would
miss those calls.  :meth:`Recorder.uninstall` restores every original
attribute.

While ``Recorder.spans`` is a list, each wrapped call also records a span
``[name, start, end, parent]`` (parent = index of the enclosing span, -1
for none); spans stay in memory until :func:`chrome_trace` turns them into
a Chrome-trace document, and at most ``span_cap`` are kept.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from summary import percentile, ratio

#: (layer, counter, "module:Class", method) for every wrapped attribute.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim", "schedule", "repro.sim.engine:Simulator", "schedule"),
    ("sim", "schedule", "repro.sim.engine:Simulator", "schedule_at"),
    ("transport", "send", "repro.coherence.transport:Transport", "send"),
    ("network", "send", "repro.network.interface:Fabric", "send"),
    ("network", "send", "repro.network.mesh:Mesh", "send"),
    ("cache_ctrl", "access", "repro.coherence.cache_ctrl:CacheController", "read"),
    ("cache_ctrl", "access", "repro.coherence.cache_ctrl:CacheController", "write"),
    ("cache_ctrl", "handle", "repro.coherence.cache_ctrl:CacheController", "handle"),
    ("cache_array", "find", "repro.memory.cache:CacheArray", "find"),
    ("cache_array", "victim", "repro.memory.cache:CacheArray", "victim_index"),
    ("cache_array", "fill", "repro.memory.cache:CacheArray", "install_index"),
    ("directory", "handle", "repro.coherence.directory:DirectoryController", "handle"),
    ("memory", "dram", "repro.memory.dram:MemoryModule", "access"),
    ("memory", "dram", "repro.memory.dram:MemoryModule", "directory_access"),
    ("memory", "bus", "repro.memory.bus:LocalBus", "transact"),
    ("protocols", "use_update", "repro.protocols.base:Protocol", "use_update"),
    ("store", "fetch", "repro.experiments.store:ResultStore", "fetch"),
    ("store", "put", "repro.experiments.store:ResultStore", "put"),
)

#: Layers whose wrapped calls happen inside a simulated cell.
SIM_LAYERS = (
    "sim", "transport", "network", "cache_ctrl", "cache_array",
    "directory", "memory", "protocols", "workload",
)


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = __import__(module_name, fromlist=[class_name])
    return getattr(module, class_name)


def _with_overrides(cls, method: str) -> List[type]:
    """``cls`` plus every subclass that defines its own ``method``."""
    found, todo = [cls], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        todo.extend(sub.__subclasses__())
        if method in sub.__dict__:
            found.append(sub)
    return found


class Recorder:
    """Call counts, self time and optional spans for wrapped methods."""

    def __init__(self, span_cap: int = 200_000) -> None:
        #: (layer, counter) -> [calls, self seconds, falsy results]
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        #: Span list while recording, else None.
        self.spans: Optional[List[list]] = None
        self.span_cap = span_cap
        self._stack: List[list] = []
        self._saved: List[Tuple[type, str, Any]] = []

    def wrap(self, layer: str, counter: str, fn: Callable) -> Callable:
        """``fn`` with timing; falsy results are counted (predicate hooks)."""
        stats = self.stats.setdefault((layer, counter), [0, 0.0, 0])
        stack = self._stack
        name = f"{layer}.{counter}"
        clock = perf_counter
        recorder = self

        def timed(*args, **kwargs):
            spans = recorder.spans
            span_id = -1
            start = clock()
            if spans is not None and len(spans) < recorder.span_cap:
                span_id = len(spans)
                spans.append([name, start, start, stack[-1][1] if stack else -1])
            frame = [0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id >= 0:
                    spans[span_id][2] = end
            if not result:
                stats[2] += 1
            return result

        return timed

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for layer, counter, path, method in TARGETS:
            for cls in _with_overrides(_resolve(path), method):
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self.wrap(layer, counter, original))
        from repro.workloads.base import Workload

        original_programs = Workload.__dict__["programs"]
        recorder = self

        def programs(workload):
            return [_TimedProgram(recorder, it) for it in original_programs(workload)]

        self._saved.append((Workload, "programs", original_programs))
        Workload.programs = programs

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> Dict[str, List[float]]:
        """JSON form of :attr:`stats` (``"layer.counter"`` keys)."""
        return {f"{lay}.{cnt}": list(row) for (lay, cnt), row in self.stats.items()}


class _TimedProgram:
    """A workload program iterator whose ``next`` is timed as one layer."""

    __slots__ = ("_next",)

    def __init__(self, recorder: Recorder, program) -> None:
        self._next = recorder.wrap("workload", "next", program.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def chrome_trace(spans: List[list]) -> dict:
    """Spans as a Chrome-trace document (``X`` events, microseconds)."""
    origin = spans[0][1] if spans else 0.0
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(spans)
        ],
    }


def layer_metrics(snapshot: Dict[str, List[float]], facts: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from wrapper stats plus round facts.

    ``facts`` carries what the wrappers cannot see: summed simulated
    counters, events and traffic, the traced cells' wall time, sweep
    observations and overhead ratios.  Layers a round does not use read 0;
    the ``serve.*`` metrics are filled in by ``workloads.run_serve``.
    """
    def row(key: str) -> List[float]:
        return snapshot.get(key, [0, 0.0, 0])

    def self_time(*layers: str) -> float:
        return sum(r[1] for key, r in snapshot.items()
                   if key.partition(".")[0] in layers)

    counters = facts.get("counters", {})
    read_hits = counters.get("read_hits", 0)
    nominations = counters.get("nominations", 0)
    use_update, fallbacks = row("protocols.use_update")[0], row("protocols.use_update")[2]
    fetches, misses = row("store.fetch")[0], row("store.fetch")[2]
    cell_wall = facts.get("cell_wall_s", 0.0)
    cell_s = facts.get("parallel_cell_s", [])
    return {
        "sim.events": facts.get("events", 0),
        "sim.schedule_calls": row("sim.schedule")[0],
        "sim.schedule_self_s": self_time("sim"),
        # The event loop and ``cpu`` have no public per-call entry point.
        "sim.loop_residual_s": (
            max(0.0, cell_wall - self_time(*SIM_LAYERS)) if cell_wall else 0.0),
        "transport.send_calls": row("transport.send")[0],
        "transport.self_s": self_time("transport"),
        "transport.messages": facts.get("network_messages", 0),
        "transport.bits": facts.get("network_bits", 0),
        "network.send_calls": row("network.send")[0],
        "network.self_s": self_time("network"),
        "cache_ctrl.access_calls": row("cache_ctrl.access")[0],
        "cache_ctrl.handle_calls": row("cache_ctrl.handle")[0],
        "cache_ctrl.self_s": self_time("cache_ctrl"),
        "cache_array.find_calls": row("cache_array.find")[0],
        "cache_array.fill_calls": row("cache_array.fill")[0],
        "cache_array.self_s": self_time("cache_array"),
        "cache_array.read_hit_ratio": ratio(
            read_hits, read_hits + counters.get("read_misses", 0)),
        "directory.handle_calls": row("directory.handle")[0],
        "directory.self_s": self_time("directory"),
        "directory.nominations": nominations,
        "directory.migratory_reads": counters.get("migratory_reads", 0),
        "directory.nomination_keep_ratio": (
            1.0 - counters.get("nomig_reverts", 0) / nominations if nominations else 0.0),
        "memory.dram_calls": row("memory.dram")[0],
        "memory.bus_calls": row("memory.bus")[0],
        "memory.self_s": self_time("memory"),
        "protocols.use_update_calls": use_update,
        # ``use_update`` returning False is the fall back to invalidation.
        "protocols.update_fallback_ratio": ratio(fallbacks, use_update),
        "workload.next_calls": row("workload.next")[0],
        "workload.self_s": self_time("workload"),
        "parallel.cell_s_p50": percentile(cell_s, 50) if cell_s else 0.0,
        "parallel.idle_s_per_cell": facts.get("parallel_idle_s_per_cell", 0.0),
        "parallel.failed_cells": facts.get("parallel_failed_cells", 0),
        "parallel.retried_cells": facts.get("parallel_retried_cells", 0),
        "store.fetch_calls": fetches,
        "store.fetch_self_s": row("store.fetch")[1],
        "store.put_calls": row("store.put")[0],
        "store.put_self_s": row("store.put")[1],
        # A miss is a falsy (None) fetch result.
        "store.hit_ratio": ratio(fetches - misses, fetches),
        "serve.submit_s_p50": 0.0,
        "serve.status_s_p50": 0.0,
        "serve.polls_per_job": 0.0,
        "serve.server_s_per_request": 0.0,
        "serve.store_hit_ratio": 0.0,
        "serve.requeues": 0,
        "trace.wrapper_overhead_ratio": facts.get("wrapper_overhead_ratio", 0.0),
        "obs.span_tracer_overhead_ratio": facts.get("span_tracer_overhead_ratio", 0.0),
        "obs.sampler_overhead_ratio": facts.get("sampler_overhead_ratio", 0.0),
    }
