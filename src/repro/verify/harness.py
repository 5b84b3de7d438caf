"""The simulator's own coherence controllers, untimed, over one block.

N real :class:`~repro.coherence.cache_ctrl.CacheController`\\ s, each over
a one-frame cache, and one
:class:`~repro.coherence.directory.DirectoryController` at node N, with an
enabled :class:`~repro.coherence.checker.CoherenceChecker`.  Fakes stand
in for the only machine surfaces the controllers touch: a memory module
that answers at once, a transport of FIFO channels per source,
destination and mesh, and a clock whose ``now`` stays 0.  A directory
send at its memory module's time goes out at once (the module reserves
FIFO, so those sends keep call order); a cache's send after its service
delay waits for the explorer to release it, because in the timed machine
the same cache's later undelayed sends on that channel (its next ``Rr``,
say) overtake it.

A step is a processor read or write (one outstanding, ``ops`` per cache),
an eviction of an unlocked line, the delivery of a channel's head, or the
release of a cache's oldest delayed send.  Each component snapshots and
restores its own state, so each struct-of-arrays layout stays in its module.
:meth:`Harness.perform` instead runs one processor operation to
quiescence, in one fixed order, so a test can script the request stream
home sees.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.coherence.cache_ctrl import CacheController
from repro.coherence.checker import CoherenceChecker
from repro.coherence.directory import DirectoryController
from repro.coherence.messages import CoherenceMessage
from repro.core.policy import ProtocolPolicy
from repro.memory.cache import CacheArray
from repro.stats.counters import Counters

#: The one block every cache contends for (its address is 0 too).
BLOCK = 0
LINE_BYTES = 16
#: ``MemoryModule`` with no occupancy: each access ends when it starts.
_MEMORY = SimpleNamespace(access=lambda now: now, directory_access=lambda now: now)


def _done() -> None:
    """A processor operation's completion callback (the harness counts
    operations when it issues them)."""


class _Clock:
    """``Simulator`` as the controllers use it."""

    now = 0

    def __init__(self, num_caches: int) -> None:
        #: Each cache's delayed sends, oldest first.
        self.delayed: List[List[CoherenceMessage]] = [[] for _ in range(num_caches)]

    def schedule(self, delay: int, send, msg: CoherenceMessage) -> None:
        self.delayed[msg.src].append(msg)

    def schedule_at(self, time: int, send, msg: CoherenceMessage) -> None:
        send(msg)

    def snapshot(self) -> tuple:
        return tuple(tuple(msg.fields() for msg in sends) for sends in self.delayed)

    def restore(self, delayed: tuple) -> None:
        self.delayed = [[CoherenceMessage(*msg) for msg in sends] for sends in delayed]


class _Channels:
    """``Transport`` as FIFO channels keyed (source, destination, mesh)."""

    def __init__(self) -> None:
        self.queues: Dict[Tuple[int, int, int], List[CoherenceMessage]] = {}
        #: Handlers keyed (node, is the directory).
        self._handlers: Dict[Tuple[int, bool], object] = {}

    def register_cache(self, node: int, handler) -> None:
        self._handlers[node, False] = handler

    def register_directory(self, node: int, handler) -> None:
        self._handlers[node, True] = handler

    def send(self, msg: CoherenceMessage) -> None:
        self.queues.setdefault((msg.src, msg.dst, msg.kind.net_idx), []).append(msg)

    def deliver(self, key: Tuple[int, int, int]) -> None:
        queue = self.queues[key]
        msg = queue.pop(0)
        if not queue:
            del self.queues[key]
        self._handlers[msg.dst, msg.kind.to_directory](msg)

    def snapshot(self) -> tuple:
        return tuple(sorted(
            (key, tuple(msg.fields() for msg in queue))
            for key, queue in self.queues.items()
        ))

    def restore(self, channels: tuple) -> None:
        self.queues = {
            key: [CoherenceMessage(*msg) for msg in queue] for key, queue in channels
        }


class Harness:
    """N cache controllers and their home directory, stepped by hand."""

    def __init__(
        self, num_caches: int = 2, ops: int = 2,
        policy: Optional[ProtocolPolicy] = None,
    ) -> None:
        self.num_caches = num_caches
        policy = policy or ProtocolPolicy("AD")
        self.clock = _Clock(num_caches)
        self.transport = _Channels()
        self.checker = CoherenceChecker()
        self.counters = Counters()
        self.directory = DirectoryController(
            num_caches, num_caches + 1, self.clock, self.transport, _MEMORY, policy,
            self.counters, checker=self.checker,
        )
        self.caches = [
            CacheController(
                node, self.clock, self.transport,
                CacheArray(LINE_BYTES, LINE_BYTES), lambda block: num_caches,
                policy, self.checker, self.counters,
            )
            for node in range(num_caches)
        ]
        self.ops_left = (ops,) * num_caches
        #: (snapshot, restore) of each component.
        self._components = [
            (lambda: self.ops_left, partial(setattr, self, "ops_left")),
            (partial(self.directory.snapshot, BLOCK),
             partial(self.directory.restore, BLOCK)),
            (partial(self.checker.snapshot, BLOCK),
             partial(self.checker.restore, BLOCK)),
            (self.transport.snapshot, self.transport.restore),
            (self.clock.snapshot, self.clock.restore),
        ] + [
            (partial(cache.snapshot, BLOCK), partial(cache.restore, BLOCK, done=_done))
            for cache in self.caches
        ]
        #: Component values by id, and ids by value: each distinct value is
        #: kept once, so a state is a small tuple of ids.
        self._values: List[tuple] = []
        self._ids: Dict[tuple, int] = {}

    def snapshot(self) -> Tuple[int, ...]:
        """The current state, as a hashable tuple of component ids."""
        state = []
        for get, _put in self._components:
            value = get()
            ident = self._ids.get(value)
            if ident is None:
                ident = self._ids[value] = len(self._values)
                self._values.append(value)
            state.append(ident)
        return tuple(state)

    def restore(self, state: Tuple[int, ...]) -> None:
        """Put back a state :meth:`snapshot` returned."""
        for ident, (_get, put) in zip(state, self._components):
            put(self._values[ident])

    def steps(self) -> List[Tuple[str, object]]:
        """Every step enabled in the current state, as (action, argument)."""
        steps: List[Tuple[str, object]] = []
        for node, cache in enumerate(self.caches):
            if self.ops_left[node] and BLOCK not in cache.mshrs:
                steps += [("read", node), ("write", node)]
                line = cache.cache.snapshot(BLOCK)
                if line is not None and not line[2]:  # valid and unlocked
                    steps.append(("evict", node))
            if self.clock.delayed[node]:
                steps.append(("release", node))
        steps.extend(("deliver", key) for key in self.transport.queues)
        return steps

    def take(self, step: Tuple[str, object]) -> None:
        action, arg = step
        if action == "deliver":
            self.transport.deliver(arg)
        elif action == "release":
            self.transport.send(self.clock.delayed[arg].pop(0))
        else:
            self.ops_left = tuple(
                left - (node == arg) for node, left in enumerate(self.ops_left)
            )
            cache = self.caches[arg]
            if action == "evict":
                cache._ensure_frame(BLOCK)
            else:  # "read" or "write"
                getattr(cache, action)(BLOCK, _done)

    def perform(self, action: str, node: int) -> List[CoherenceMessage]:
        """Take processor step ``(action, node)``, then release and deliver
        every message it causes until only processor steps remain, and
        return the delivered messages in order.  Delayed sends are
        released first, lowest node first; otherwise the channel that
        opened earliest delivers its head."""
        self.take((action, node))
        delivered = []
        queues = self.transport.queues
        while True:
            sends = next(filter(None, self.clock.delayed), None)
            if sends:
                self.transport.send(sends.pop(0))
            elif queues:
                key = next(iter(queues))
                delivered.append(queues[key][0])
                self.transport.deliver(key)
            else:
                return delivered

    def describe(self, step: Tuple[str, object]) -> str:
        action, arg = step
        if action == "deliver":
            return f"deliver {self.transport.queues[arg][0]!r}"
        if action == "release":
            return f"release {self.clock.delayed[arg][0]!r}"
        return f"cache {arg} {action}"

    def __repr__(self) -> str:
        lines = [cache.cache.lookup(BLOCK) for cache in self.caches]
        return (
            f"lines {[line and (line.state.value, line.version) for line in lines]}, "
            f"caches {[cache.introspect() for cache in self.caches]}, "
            f"{self.directory.entries[BLOCK]!r}, "
            f"in flight {self.transport.queues}, delayed {self.clock.delayed}"
        )
