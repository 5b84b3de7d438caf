"""Two-dimensional wormhole-routed mesh with dimension-order (XY) routing.

The paper's machine has *two* 4x4 meshes — one for requests, one for
replies — with 16-bit links, a three-stage node fall-through (arbitrate,
route, send), and a synchronous 100 MHz clock, i.e. one flit per link per
pclock.  We model each directed link as a FIFO :class:`~repro.sim.Resource`
occupied for the message's flit count, and approximate wormhole pipelining
as: the head flit pays the fall-through at every hop, and the body streams
behind it, so the unloaded traversal latency is::

    hops * fall_through + flits + ejection

Contention appears as queueing on the per-link reservations, which is
where the paper's "WO Cont." read-penalty blow-up comes from (Figure 6).
A mesh counts no traffic of its own: the coherence transport's per-kind
counts are the paper's traffic, and each link's ``busy_time`` is what
the metrics sampler reads.

Deterministic XY routing over FIFO links preserves point-to-point ordering
per (src, dst) pair within one mesh, matching the ordering assumptions of
the coherence protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.network.message import NetworkMessage
from repro.sim.engine import Simulator
from repro.sim.resource import InfiniteResource, Resource

DeliveryCallback = Callable[[NetworkMessage], None]


class Mesh:
    """One wormhole-routed 2-D mesh network.

    Parameters mirror Section 4.2 of the paper:

    ``width`` x ``height``
        Mesh dimensions (default machine: 4 x 4).
    ``link_bits``
        Link width in bits (paper: 16), i.e. bits moved per pclock per link.
    ``fall_through``
        Router pipeline depth in pclocks paid by the head flit per hop
        (paper: three stages — arbitrate, route, send).
    ``interface_delay``
        Network-interface traversal overhead in pclocks paid at *each*
        end of a transfer: once at injection and once at ejection (the
        machine default of 1 per end gives the paper's 2-pclock total
        interface overhead).
    ``infinite_bandwidth``
        If True, links never queue (same latency, zero contention) — the
        paper's "No Cont." network for Figure 6.
    """

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
        name: str = "mesh",
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        self.sim = sim
        self.width = width
        self.height = height
        self.link_bits = link_bits
        self.fall_through = fall_through
        self.interface_delay = interface_delay
        self.name = name
        self.num_nodes = width * height
        #: True when links are InfiniteResources (send() skips the FIFO
        #: reservation arithmetic entirely for that case).
        self._infinite = infinite_bandwidth
        link_cls = InfiniteResource if infinite_bandwidth else Resource
        # XY routes are static, and the send path walks Resource objects
        # directly: per (src, dst) the route is resolved once into a tuple
        # of link Resources, so each message pays a tuple walk + reserve,
        # never dict lookups.
        self._chain_cache: Dict[Tuple[int, int], Tuple[Resource, ...]] = {}
        #: Directed links keyed by (from_node, to_node).
        self.links: Dict[Tuple[int, int], Resource] = {}
        for node in range(self.num_nodes):
            for neighbor in self._neighbors(node):
                self.links[(node, neighbor)] = link_cls(f"{name}:{node}->{neighbor}")

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        """(x, y) coordinates of ``node``."""
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def _neighbors(self, node: int) -> List[int]:
        x, y = self.coords(node)
        result = []
        if x + 1 < self.width:
            result.append(self.node_at(x + 1, y))
        if x - 1 >= 0:
            result.append(self.node_at(x - 1, y))
        if y + 1 < self.height:
            result.append(self.node_at(x, y + 1))
        if y - 1 >= 0:
            result.append(self.node_at(x, y - 1))
        return result

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-order (X first, then Y) route as a list of links."""
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(f"node out of range: {src} -> {dst}")
        path: List[Tuple[int, int]] = []
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        node = src
        while x != dx:
            x += 1 if dx > x else -1
            nxt = self.node_at(x, y)
            path.append((node, nxt))
            node = nxt
        while y != dy:
            y += 1 if dy > y else -1
            nxt = self.node_at(x, y)
            path.append((node, nxt))
            node = nxt
        return path

    def _chain(self, src: int, dst: int) -> Tuple[Resource, ...]:
        """The route's link Resources, computed once per (src, dst)."""
        key = (src, dst)
        chain = self._chain_cache.get(key)
        if chain is None:
            chain = tuple(self.links[link] for link in self.route(src, dst))
            self._chain_cache[key] = chain
        return chain

    def hop_count(self, src: int, dst: int) -> int:
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(x - dx) + abs(y - dy)

    def mean_distance(self) -> float:
        """Mean XY distance between two distinct nodes (paper: 2.5 in 4x4)."""
        total = 0
        pairs = 0
        for a in range(self.num_nodes):
            for b in range(self.num_nodes):
                if a != b:
                    total += self.hop_count(a, b)
                    pairs += 1
        return total / pairs if pairs else 0.0

    def unloaded_latency(self, src: int, dst: int, bits: int) -> int:
        """Contention-free traversal time for a ``bits``-sized message.

        Matches :meth:`send` exactly: a self-message crosses both
        interface ends but no link, so it pays no flit serialization.
        """
        if src == dst:
            return 2 * self.interface_delay
        flits = -(-bits // self.link_bits)  # ceil division, no message alloc
        hops = self.hop_count(src, dst)
        return hops * self.fall_through + flits + 2 * self.interface_delay

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def send(self, message: NetworkMessage, deliver: DeliveryCallback) -> None:
        """Inject ``message`` now; call ``deliver(message)`` on arrival.

        The message pays ``interface_delay`` at each end (injection and
        ejection); between them the head flit advances one fall-through
        per hop after acquiring the link, and the tail arrives ``flits``
        pclocks after the head enters the final link.  A message to self
        pays both interface crossings but no mesh traversal.
        """
        sim = self.sim
        now = sim.now

        if message.src == message.dst:
            arrival = now + 2 * self.interface_delay
        else:
            flits = -(-message.bits // self.link_bits)  # ceil division
            interface_delay = self.interface_delay
            fall_through = self.fall_through
            head = now + interface_delay
            chain = self._chain_cache.get((message.src, message.dst))
            if chain is None:
                chain = self._chain(message.src, message.dst)
            if self._infinite:
                head += fall_through * len(chain)
            else:
                # Inlined Resource.reserve (same FIFO arithmetic): one link
                # acquisition per hop without a method call per link.
                for link in chain:
                    free_at = link._free_at
                    start = free_at if free_at > head else head
                    link._free_at = start + flits
                    link.busy_time += flits
                    head = start + fall_through
            arrival = head + flits + interface_delay

        sim.schedule_at(arrival, deliver, message)
