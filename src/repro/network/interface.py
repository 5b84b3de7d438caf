"""Network fabric: the pair of meshes plus per-node delivery dispatch.

The DASH interconnect is two independent meshes — one carrying requests,
one carrying replies — to break request/reply protocol deadlock.  The
:class:`Fabric` owns both, assigns every message to the right mesh, and
dispatches deliveries to the handler registered by each node's controller
(the role played by DASH's network interface / remote-access cache).

Inside a simulated machine the coherence
:class:`~repro.coherence.transport.Transport` sends on the two meshes
directly and registers no handlers here.  :meth:`Fabric.register` and
:meth:`Fabric.send` stay as the standalone API for driving the
interconnect without the coherence layer (``tests/network``), and the
benchmark's per-layer tracer wraps ``Fabric.send`` by name as part of
the network layer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.network.mesh import Mesh
from repro.network.message import NetworkMessage
from repro.sim.engine import SimulationError, Simulator

Handler = Callable[[NetworkMessage], None]

REQUEST = "request"
REPLY = "reply"


class Fabric:
    """The two-mesh interconnect of the machine."""

    def __init__(
        self,
        sim: Simulator,
        width: int,
        height: int,
        *,
        link_bits: int = 16,
        fall_through: int = 3,
        interface_delay: int = 1,
        infinite_bandwidth: bool = False,
    ) -> None:
        self.sim = sim
        self.request_mesh = Mesh(
            sim,
            width,
            height,
            link_bits=link_bits,
            fall_through=fall_through,
            interface_delay=interface_delay,
            infinite_bandwidth=infinite_bandwidth,
            name="request-mesh",
        )
        self.reply_mesh = Mesh(
            sim,
            width,
            height,
            link_bits=link_bits,
            fall_through=fall_through,
            interface_delay=interface_delay,
            infinite_bandwidth=infinite_bandwidth,
            name="reply-mesh",
        )
        self.num_nodes = self.request_mesh.num_nodes
        self._handlers: Dict[int, Handler] = {}

    def register(self, node: int, handler: Handler) -> None:
        """Register the message handler for ``node`` (one per node)."""
        if node in self._handlers:
            raise SimulationError(f"node {node} already has a handler")
        self._handlers[node] = handler

    def send(self, message: NetworkMessage, network: str = REQUEST) -> None:
        """Send ``message`` on the named mesh and deliver to its node handler."""
        if network == REQUEST:
            mesh = self.request_mesh
        elif network == REPLY:
            mesh = self.reply_mesh
        else:
            raise ValueError(f"unknown network {network!r}")
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise SimulationError(f"no handler registered for node {message.dst}")
        mesh.send(message, handler)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def bits_sent(self) -> int:
        return self.request_mesh.bits_sent + self.reply_mesh.bits_sent

    @property
    def messages_sent(self) -> int:
        return self.request_mesh.messages_sent + self.reply_mesh.messages_sent

    def unloaded_latency(self, src: int, dst: int, bits: int, network: str = REQUEST) -> int:
        mesh = self.request_mesh if network == REQUEST else self.reply_mesh
        return mesh.unloaded_latency(src, dst, bits)

    def reset_stats(self) -> None:
        self.request_mesh.reset_stats()
        self.reply_mesh.reset_stats()
