"""Seeded fault plans: reproducible timing perturbation.

A :class:`~repro.machine.config.FaultConfig` describes *what* to perturb
— picklable, hashable, and declared beside the
:class:`~repro.machine.config.MachineConfig` that carries it, so fault
runs travel through :mod:`repro.experiments.parallel` unchanged and a
process that only reads configs never loads this module.  A
:class:`FaultPlan` is the runtime injector one :class:`Machine` builds
from it.

Everything is derived from ``(seed, intensity)``: the same pair replays
the exact same perturbation schedule, because decisions are drawn from
dedicated :class:`random.Random` streams consumed in deterministic
event order.

Correctness discipline — faults may only produce schedules a real
machine could produce:

* **Extra delay** holds a message at its injection point for a bounded
  number of pclocks.  Delivery order per ``(src, dst, network)`` is
  clamped to stay FIFO, because the meshes guarantee (and the protocol
  assumes) point-to-point ordering; everything else may legally slide.
* **Same-source reordering** swaps a held message with the source's next
  message *only* when the two target different (destination, network)
  pairs, so the FIFO assumption again survives.  A held message is
  flushed after a bounded window even if no partner arrives — reordering
  can never strand a message.
* **Forced NAKs** make a dirty owner behave as if it had evicted the
  line an instant before a forward arrived: it writes the line back and
  NAKs the forward — exactly the legal race the directory's re-queue
  path exists for (DESIGN.md §3.1), now provokable on demand.
* **Per-node slowdowns** scale a node's local-bus and memory occupancy
  by a small integer factor (a slow board, not a broken one).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from repro.machine.config import FaultConfig

#: Counter names the plan reports through the machine's Counters object.
DELAYS = "fault_delays"
REORDERS = "fault_reorders"
REORDER_FLUSHES = "fault_reorder_flushes"
FORCED_NAKS = "fault_forced_naks"


def _derive(config: FaultConfig) -> Dict[str, float]:
    """Concrete knob values for a config (intensity fills the blanks)."""
    i = max(0.0, config.intensity)

    def pick(explicit, derived):
        return derived if explicit is None else explicit

    return {
        "delay_fraction": pick(config.delay_fraction, min(0.9, 0.35 * i)),
        "max_extra_delay": int(pick(config.max_extra_delay, max(1, round(40 * i)))),
        "reorder_fraction": pick(config.reorder_fraction, min(0.5, 0.15 * i)),
        "reorder_window": int(pick(config.reorder_window, max(4, round(24 * i)))),
        "nak_fraction": pick(config.nak_fraction, min(0.75, 0.25 * i)),
        "slow_node_fraction": pick(config.slow_node_fraction, min(1.0, 0.25 * i)),
        "max_slowdown": int(pick(config.max_slowdown, 1 + round(2 * i))),
    }


class _NullCounters:
    """Counter sink for plans used outside a Machine."""

    def inc(self, name: str, by: int = 1) -> None:  # pragma: no cover - trivial
        pass


class FaultPlan:
    """The runtime injector one machine builds from a :class:`FaultConfig`.

    The transport calls :meth:`on_send` for every message; cache
    controllers ask :meth:`force_nak` when a forward arrives at a line
    they could legally have just evicted; the machine reads
    :meth:`bus_slowdown` / :meth:`memory_slowdown` per node at build
    time.
    """

    def __init__(self, config: FaultConfig, counters=None) -> None:
        self.config = config
        self.counters = counters if counters is not None else _NullCounters()
        knobs = _derive(config)
        self.delay_fraction = knobs["delay_fraction"]
        self.max_extra_delay = knobs["max_extra_delay"]
        self.reorder_fraction = knobs["reorder_fraction"]
        self.reorder_window = knobs["reorder_window"]
        self.nak_fraction = knobs["nak_fraction"]
        self.slow_node_fraction = knobs["slow_node_fraction"]
        self.max_slowdown = knobs["max_slowdown"]
        # Independent streams so pinning one knob never shifts another's
        # decision sequence.
        self._delay_rng = random.Random(f"{config.seed}:delay")
        self._nak_rng = random.Random(f"{config.seed}:nak")
        self._sim = None
        self._send_now: Optional[Callable] = None
        #: At most one held (reorder candidate) message per source node.
        self._held: Dict[int, object] = {}
        #: FIFO clamp: (src, dst, network) -> (last release time, scheduled?).
        self._last_release: Dict[Tuple, Tuple[int, bool]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_transport(self, transport) -> None:
        """Attach to a Transport; its ``_send_now`` performs real sends."""
        self._sim = transport.sim
        self._send_now = transport._send_now

    # ------------------------------------------------------------------
    # Per-node slowdowns (pure functions of the seed)
    # ------------------------------------------------------------------
    def _node_slowdown(self, node: int, salt: str) -> int:
        rng = random.Random(f"{self.config.seed}:{salt}:{node}")
        if self.max_slowdown < 2 or rng.random() >= self.slow_node_fraction:
            return 1
        return rng.randint(2, self.max_slowdown)

    def bus_slowdown(self, node: int) -> int:
        """Local-bus occupancy multiplier for ``node`` (>= 1)."""
        return self._node_slowdown(node, "bus")

    def memory_slowdown(self, node: int) -> int:
        """Memory/directory occupancy multiplier for ``node`` (>= 1)."""
        return self._node_slowdown(node, "mem")

    # ------------------------------------------------------------------
    # Forced NAKs
    # ------------------------------------------------------------------
    def force_nak(self) -> bool:
        """Should the owner spuriously evict-and-NAK this forward?"""
        if self.nak_fraction <= 0:
            return False
        if self._nak_rng.random() >= self.nak_fraction:
            return False
        self.counters.inc(FORCED_NAKS)
        return True

    # ------------------------------------------------------------------
    # Message perturbation
    # ------------------------------------------------------------------
    def on_send(self, msg) -> None:
        """Inject ``msg``, possibly delayed or swapped with a neighbour."""
        held = self._held.pop(msg.src, None)
        if held is not None:
            if (held.dst, held.network) != (msg.dst, msg.network):
                # Swap: the newer message jumps ahead of the held one.
                self.counters.inc(REORDERS)
                self._dispatch(msg)
                self._dispatch(held)
                return
            # Same FIFO lane: release in original order.
            self._dispatch(held)
        if (
            self.reorder_fraction > 0
            and self._delay_rng.random() < self.reorder_fraction
        ):
            self._held[msg.src] = msg
            self._sim.schedule(self.reorder_window, self._flush, msg.src, msg)
            return
        self._dispatch(msg)

    def holds(self, msg) -> bool:
        """Whether ``msg`` is held back for reordering right now."""
        return self._held.get(msg.src) is msg

    def _flush(self, src: int, msg) -> None:
        """Release a held message whose swap partner never showed up."""
        if self.holds(msg):
            del self._held[src]
            self.counters.inc(REORDER_FLUSHES)
            self._dispatch(msg)

    def _dispatch(self, msg) -> None:
        """Send ``msg`` now or later, keeping per-lane FIFO order."""
        delay = 0
        if self.delay_fraction > 0 and self._delay_rng.random() < self.delay_fraction:
            delay = 1 + self._delay_rng.randrange(self.max_extra_delay)
            self.counters.inc(DELAYS)
        now = self._sim.now
        if msg.src == msg.dst:
            # Node-local traffic shares one bus; keep its total order.
            key = (msg.src, msg.dst, "local")
        else:
            key = (msg.src, msg.dst, msg.network)
        last_time, last_scheduled = self._last_release.get(key, (-1, False))
        release = max(now + delay, last_time)
        if release > now or (last_time == now and last_scheduled):
            # A future release, or an equal-time release that may still be
            # queued: schedule so heap FIFO order preserves the lane.
            self._last_release[key] = (release, True)
            self._sim.schedule_at(release, self._send_now, msg)
        else:
            self._last_release[key] = (now, False)
            self._send_now(msg)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def introspect(self) -> dict:
        """Plan state for diagnostic dumps."""
        return {
            "seed": self.config.seed,
            "intensity": self.config.intensity,
            "held_messages": len(self._held),
            "knobs": {
                "delay_fraction": self.delay_fraction,
                "max_extra_delay": self.max_extra_delay,
                "reorder_fraction": self.reorder_fraction,
                "reorder_window": self.reorder_window,
                "nak_fraction": self.nak_fraction,
                "slow_node_fraction": self.slow_node_fraction,
                "max_slowdown": self.max_slowdown,
            },
        }
