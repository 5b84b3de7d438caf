"""Message transport: local bus hops + mesh traversal + delivery dispatch.

Every coherence message moves between a cache controller and a directory
controller (or another cache controller).  Timing composition:

* a *cache* endpoint reaches the world over its node's local bus (split
  transaction: arbitration + one transfer per 128-bit beat);
* a *directory* endpoint sits on the memory module's own port (DASH's
  directory controller), so it pays memory/directory occupancy inside its
  handler instead of bus time;
* distinct nodes are connected by the request/reply meshes; a node talking
  to itself skips the mesh entirely.

The transport also owns the per-kind traffic accounting used by Table 3,
and counts the messages in flight between :meth:`Transport.send` and
their handler dispatch.  It keeps no other record of a message: the
pending event that will move it next holds it (a diagnostic dump reads
them through :meth:`~repro.sim.engine.Simulator.queued`).

Hot-path layout: handlers live in node-indexed lists (``handlers[dst]``
is a list index, not a dict hash), the mesh for a message is picked by
``kind.net_idx`` from a two-slot tuple (bypassing the fabric's
name-string dispatch), the mesh delivers a directory message straight
to :meth:`Transport._dispatch`, and every deferred hop is scheduled as
``schedule_at(t, method, msg)`` so no closure is allocated per message.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.coherence.messages import (
    KINDS_BY_INDEX,
    NUM_KINDS,
    CoherenceMessage,
    MsgKind,
)
from repro.memory.bus import LocalBus
from repro.network.interface import Fabric
from repro.network.message import HEADER_BITS
from repro.sim.engine import SimulationError, Simulator

Handler = Callable[[CoherenceMessage], None]


class Transport:
    """Routes coherence messages with bus + mesh timing.

    An optional :class:`~repro.faults.plan.FaultPlan` may intercept every
    injection to add bounded delay or reorder same-source messages; with
    no plan attached the send path is untouched.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        buses: List[LocalBus],
        line_bits: int = 128,
        faults=None,
    ) -> None:
        self.sim = sim
        #: Meshes indexed by ``MsgKind.net_idx`` (0 = request, 1 = reply);
        #: the send path picks one with a tuple index instead of routing
        #: through ``Fabric.send``'s name-string dispatch.
        self._meshes = (fabric.request_mesh, fabric.reply_mesh)
        self.buses = buses
        #: Payload size of data-carrying messages (one cache line).  The
        #: message vocabulary defaults to the paper's 16-byte lines; the
        #: transport re-sizes for other machine configurations.
        self.line_bits = line_bits
        #: Per-node delivery handlers, indexed by node id (None = absent).
        self._cache_handlers: List[Optional[Handler]] = [None] * fabric.num_nodes
        self._directory_handlers: List[Optional[Handler]] = [None] * fabric.num_nodes
        # Traffic accounting (all injected messages, by kind).  Kept as
        # flat lists indexed by ``MsgKind.index`` so the send path does a
        # list store instead of hashing an enum member; the dict views the
        # reports consume are materialized on demand (see properties).
        self._bits_by_kind: List[int] = [0] * NUM_KINDS
        self._count_by_kind: List[int] = [0] * NUM_KINDS
        #: Bits that actually crossed the mesh (excludes node-local traffic);
        #: this is the paper's "network traffic" metric.
        self.network_bits = 0
        self.network_messages = 0
        #: Messages between ``send`` and their handler dispatch.
        self.in_flight = 0
        #: Optional :class:`~repro.obs.tracer.TransactionTracer` notified
        #: at every injection and dispatch of a traced message.  ``None``
        #: keeps the hot path to one attribute test per hook site.
        self.tracer = None
        self._faults = faults
        if faults is not None:
            faults.bind_transport(self)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_cache(self, node: int, handler: Handler) -> None:
        self._cache_handlers[node] = handler

    def register_directory(self, node: int, handler: Handler) -> None:
        self._directory_handlers[node] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: CoherenceMessage) -> None:
        """Inject ``msg`` at the current time (via the fault plan, if any)."""
        self.in_flight += 1
        if self._faults is not None:
            self._faults.on_send(msg)
            return
        self._send_now(msg)

    def _send_now(self, msg: CoherenceMessage) -> None:
        """Perform the actual bus/mesh injection of ``msg``."""
        sim = self.sim
        tracer = self.tracer
        if tracer is not None and msg.trace:
            tracer.on_send(msg, sim.now)
        kind = msg.kind
        carries_data = kind.carries_data
        if carries_data:
            msg.bits = HEADER_BITS + self.line_bits
        bits = msg.bits
        index = kind.index
        self._count_by_kind[index] += 1
        self._bits_by_kind[index] += bits

        if msg.src == msg.dst:
            # Node-local: one bus transaction covers the hop between the
            # cache and the directory/memory side.
            bus = self.buses[msg.src]
            done = bus.transact(sim.now, bits if carries_data else 0)
            sim.schedule_at(done, self._dispatch, msg)
            return

        self.network_bits += bits
        self.network_messages += 1

        # A directory sits on the network interface, so the mesh hands it
        # the message directly; a cache is one more bus hop away.
        deliver = self._dispatch if kind.to_directory else self._deliver
        mesh = self._meshes[kind.net_idx]
        if msg.src_is_cache:
            # Cache -> network interface over the local bus.
            bus = self.buses[msg.src]
            done = bus.transact(sim.now, bits if carries_data else 0)
            sim.schedule_at(done, mesh.send, msg, deliver)
        else:
            mesh.send(msg, deliver)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, msg: CoherenceMessage) -> None:
        """Network interface -> cache over the local bus."""
        sim = self.sim
        bus = self.buses[msg.dst]
        done = bus.transact(sim.now, msg.bits if msg.kind.carries_data else 0)
        sim.schedule_at(done, self._dispatch, msg)

    def _dispatch(self, msg: CoherenceMessage) -> None:
        self.in_flight -= 1
        tracer = self.tracer
        if tracer is not None and msg.trace:
            tracer.on_dispatch(msg, self.sim.now)
        handlers = (
            self._directory_handlers if msg.kind.to_directory else self._cache_handlers
        )
        handler = handlers[msg.dst]
        if handler is None:
            raise SimulationError(
                f"no {'directory' if msg.dst_is_directory else 'cache'} handler "
                f"for node {msg.dst}"
            )
        handler(msg)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        return sum(self._bits_by_kind)

    @property
    def bits_by_kind(self) -> Dict[MsgKind, int]:
        """Injected bits per message kind (kinds actually sent only)."""
        return {
            KINDS_BY_INDEX[i]: bits
            for i, bits in enumerate(self._bits_by_kind)
            if self._count_by_kind[i]
        }

    @property
    def count_by_kind(self) -> Dict[MsgKind, int]:
        """Injected message count per kind (kinds actually sent only)."""
        return {
            KINDS_BY_INDEX[i]: count
            for i, count in enumerate(self._count_by_kind)
            if count
        }

    def count_of(self, kind: MsgKind) -> int:
        return self._count_by_kind[kind.index]

    def reset_stats(self) -> None:
        """Zero the traffic accounting (end-of-warmup stats mark).

        ``in_flight`` is *not* cleared: it tracks liveness, not
        measurement.
        """
        self._bits_by_kind = [0] * NUM_KINDS
        self._count_by_kind = [0] * NUM_KINDS
        self.network_bits = 0
        self.network_messages = 0
