"""Machine configuration with the paper's DASH-like defaults.

All timing is in pclocks (1 pclock = 10 ns at the paper's 100 MHz
processor clock).  Defaults reproduce Section 4.2:

* 16 nodes on two 4x4 wormhole meshes (16-bit links, 100 MHz synchronous,
  three-stage fall-through);
* 64 Kbyte direct-mapped copy-back cache, 16-byte lines, 10 ns access;
* 128-bit split-transaction local bus at 50 MHz (2 pclocks arbitration +
  2 pclocks transfer);
* 100 ns memory cycle (10 pclocks);
* shared pages allocated round-robin by virtual page number, 4 Kbyte pages;
* sequential consistency.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional

from repro.consistency.models import ConsistencyModel, SEQUENTIAL_CONSISTENCY
from repro.core.policy import ProtocolPolicy


@dataclass(frozen=True)
class FaultConfig:
    """Declarative fault-injection knobs (picklable; lives in MachineConfig).

    ``intensity`` is the single dial: 0 disables everything, 1 is a
    heavily perturbed but still livable machine.  Each knob may also be
    pinned explicitly (``None`` means "derive from intensity"), which is
    how targeted tests provoke one window at a time
    (e.g. ``FaultConfig(seed=1, nak_fraction=1.0)``).
    """

    seed: int = 0
    intensity: float = 0.0
    #: Fraction of messages receiving extra injection delay.
    delay_fraction: Optional[float] = None
    #: Upper bound (pclocks) of the injected delay.
    max_extra_delay: Optional[int] = None
    #: Fraction of messages held back to swap with the source's next send.
    reorder_fraction: Optional[float] = None
    #: Pclocks a held message waits for a swap partner before flushing.
    reorder_window: Optional[int] = None
    #: Fraction of forwards the owner NAKs via a spurious eviction.
    nak_fraction: Optional[float] = None
    #: Fraction of nodes whose bus/memory run slower.
    slow_node_fraction: Optional[float] = None
    #: Largest bus/memory occupancy multiplier for a slowed node.
    max_slowdown: Optional[int] = None

    @property
    def active(self) -> bool:
        """True when this config can perturb anything at all."""
        if self.intensity > 0:
            return True
        return any(
            value
            for value in (
                self.delay_fraction,
                self.reorder_fraction,
                self.nak_fraction,
                self.slow_node_fraction,
            )
        )


@dataclass(frozen=True)
class MachineConfig:
    """Every knob of the simulated machine."""

    # Topology.
    mesh_width: int = 4
    mesh_height: int = 4
    # Caches.
    cache_size: int = 64 * 1024
    line_size: int = 16
    associativity: int = 1
    # Memory layout.
    page_size: int = 4096
    # Network.
    link_bits: int = 16
    fall_through: int = 3
    #: Network-interface traversal in pclocks per *end* (paid at both
    #: injection and ejection; 1 per end = the paper's 2-pclock total).
    interface_delay: int = 1
    infinite_bandwidth: bool = False
    # Local bus (50 MHz: 2 pclocks arbitration, 2 pclocks per transfer).
    bus_arbitration: int = 2
    bus_transfer: int = 2
    bus_width_bits: int = 128
    # Memory module.
    memory_cycle: int = 10
    directory_cycle: int = 2
    # Remote cache tag-check + data-array read when servicing a forwarded
    # request (the paper's 3-hop latencies include this).
    cache_service_delay: int = 4
    # Protocol and consistency.
    policy: ProtocolPolicy = field(default_factory=ProtocolPolicy)
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY
    # Simulation controls.
    check_coherence: bool = True
    #: Collect per-block sharing-pattern statistics at the directories
    #: (read back via ``machine.block_profiler``).
    profile_blocks: bool = False
    max_events: Optional[int] = None
    #: Deterministic fault injection (None = pristine machine; the fault
    #: hooks are inert no-ops and results are byte-identical to a build
    #: without them).
    faults: Optional[FaultConfig] = None
    #: Progress watchdog: raise LivelockError with a diagnostic dump if
    #: no processor retires an operation for this many pclocks while
    #: events keep firing (None = disabled).
    watchdog_window: Optional[int] = None
    #: Span-based transaction tracing (``machine.tracer``): record every
    #: coherence miss as a span with per-segment latency attribution.
    #: False keeps the machine byte-identical to a build without tracing.
    trace: bool = False
    #: Retained-span budget when tracing (beyond it spans still feed the
    #: latency aggregates but their per-span detail is dropped).
    trace_max_spans: int = 200_000
    #: Sample machine metrics (queue depths, occupancy) every this many
    #: pclocks into ``machine.metrics.ring`` (None = no sampling).
    metrics_interval: Optional[int] = None
    #: Ring-buffer bound on retained metric samples.
    metrics_capacity: int = 4096

    @property
    def num_nodes(self) -> int:
        return self.mesh_width * self.mesh_height

    def with_(self, **overrides) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @staticmethod
    def dash_default(**overrides) -> "MachineConfig":
        """The paper's default 16-node machine."""
        return MachineConfig().with_(**overrides) if overrides else MachineConfig()

    def to_json(self) -> Dict[str, Any]:
        """Canonical JSON-compatible serialization of every knob.

        Two equal configs serialize identically (nested policy /
        consistency / faults dataclasses included), so the dict is the
        machine-config component of a content-addressed cache key and the
        wire form ``repro-sim serve`` accepts.  Round-trips through
        :meth:`from_json`.
        """
        return asdict(self)

    @staticmethod
    def from_json(doc: Dict[str, Any]) -> "MachineConfig":
        """Rebuild a config from :meth:`to_json` output.

        Unknown keys are rejected (a submission written against a newer
        code version must not silently drop knobs — the cache key would
        then lie about what ran).
        """
        data = dict(doc)
        known = {f.name for f in fields(MachineConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown MachineConfig fields: {sorted(unknown)}")
        if data.get("policy") is not None and isinstance(data["policy"], dict):
            data["policy"] = ProtocolPolicy(**data["policy"])
        if data.get("consistency") is not None and isinstance(
            data["consistency"], dict
        ):
            data["consistency"] = ConsistencyModel(**data["consistency"])
        if data.get("faults") is not None and isinstance(data["faults"], dict):
            data["faults"] = FaultConfig(**data["faults"])
        return MachineConfig(**data)
