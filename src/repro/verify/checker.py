"""Exhaustive state-space exploration of the coherence controllers.

Breadth-first search over every reachable state of a
:class:`~repro.verify.harness.Harness` (the simulator's own cache and
directory controllers over one block), checking in each state:

* **single writer, multiple readers** — at most one cache holds the
  block Dirty/Migrating, and never beside a Shared copy;
* **value coherence** — a writable copy carries the latest committed
  version (the controllers' ``CoherenceChecker`` checks each access too);
* **directory sanity** — a Dirty/Migratory-Dirty entry that is not
  mid-transaction has an owner;
* **no stuck states** — every non-final state has an enabled step, and
  every final (quiescent) state is drained and keeps the latest version
  where the directory says it lives.

A protocol error a controller raises during a step fails it too.  The
search covers every message interleaving the channels allow for the
bound (N caches, K operations each), including the races timed runs
can only sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.coherence.checker import CoherenceViolation
from repro.sim.engine import SimulationError
from repro.verify.harness import BLOCK, Harness


class ProtocolViolation(Exception):
    """An invariant failed in some reachable state."""


class StuckStateError(ProtocolViolation):
    """A non-quiescent state has no enabled steps (deadlock)."""


@dataclass
class ExplorationResult:
    states_explored: int
    transitions: int
    final_states: int
    max_depth: int
    #: Reachable (directory state, sorted cache line states) combinations —
    #: used to cross-check the timed simulator's reachable set.
    state_shapes: Set[Tuple[str, Tuple[str, ...]]] = field(default_factory=set)
    #: The controllers' counters summed over every explored step.
    counters: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.states_explored} states, {self.transitions} transitions, "
            f"{self.final_states} quiescent, depth {self.max_depth}, "
            f"{len(self.state_shapes)} protocol shapes"
        )


def _lines(harness: Harness) -> list:
    return [cache.cache.lookup(BLOCK) for cache in harness.caches]


def _shape(harness: Harness) -> Tuple[str, Tuple[str, ...]]:
    return (
        harness.directory.entries[BLOCK].state.value,
        tuple(sorted(line.state.value if line else "I" for line in _lines(harness))),
    )


def _check_state(harness: Harness) -> None:
    lines = _lines(harness)
    states = [line.state.value if line else "I" for line in lines]
    owners = [n for n, state in enumerate(states) if state in ("D", "M")]
    if len(owners) > 1:
        raise ProtocolViolation(f"multiple writable copies: caches {owners}")
    latest = harness.checker.latest.get(BLOCK, 0)
    for node in owners:
        if "S" in states:
            raise ProtocolViolation(
                f"cache {node} holds the block writable beside shared copies"
            )
        if lines[node].version != latest:
            raise ProtocolViolation(
                f"cache {node} owns the block at version {lines[node].version}, "
                f"latest is {latest}"
            )
    entry = harness.directory.entries[BLOCK]
    if entry.state.value in ("DR", "MD") and entry.owner is None and not entry.busy:
        raise ProtocolViolation(f"{entry.state.value} with no owner")


def _is_quiescent(harness: Harness) -> bool:
    return not (
        harness.transport.queues or any(harness.clock.delayed)
        or any(harness.ops_left) or harness.directory.introspect()
        or any(cache.mshrs or cache.wb_buffer for cache in harness.caches)
    )


def _check_quiescent(harness: Harness) -> None:
    """A drained machine must store the latest version where the
    directory claims it lives."""
    entry = harness.directory.entries[BLOCK]
    state = entry.state.value
    latest = harness.checker.latest.get(BLOCK, 0)
    lines = _lines(harness)
    if state in ("U", "SR", "MU"):
        if entry.version != latest:
            raise ProtocolViolation(
                f"quiescent {state}: home holds version {entry.version}, "
                f"latest is {latest}"
            )
        for node in sorted(entry.sharers) if state == "SR" else ():
            line = lines[node]
            if line and line.state.value == "S" and line.version != latest:
                raise ProtocolViolation(
                    f"quiescent sharer {node} at stale version {line.version}"
                )
    else:
        line = lines[entry.owner]
        held = (line.state.value, line.version) if line else ("I", 0)
        if held[0] not in ("D", "M") or held[1] != latest:
            raise ProtocolViolation(
                f"quiescent {state}: owner {entry.owner} holds {held}, latest {latest}"
            )


def explore(harness: Harness, max_states: int = 2_000_000) -> ExplorationResult:
    """BFS over the full reachable state space; raises on any violation."""
    initial = harness.snapshot()
    seen = {initial}
    frontier: deque = deque([(initial, 0)])
    transitions = 0
    final_states = 0
    max_depth = 0
    shapes: Set[Tuple[str, Tuple[str, ...]]] = set()

    while frontier:
        state, depth = frontier.popleft()
        max_depth = max(max_depth, depth)
        harness.restore(state)
        _check_state(harness)
        shapes.add(_shape(harness))
        steps = harness.steps()
        if not steps:
            if not _is_quiescent(harness):
                raise StuckStateError(
                    f"stuck non-quiescent state at depth {depth}: {harness!r}"
                )
            _check_quiescent(harness)
            final_states += 1
            continue
        for index, step in enumerate(steps):
            if index:
                harness.restore(state)
            try:
                harness.take(step)
            except (SimulationError, CoherenceViolation) as exc:
                harness.restore(state)
                raise ProtocolViolation(
                    f"{harness.describe(step)} at depth {depth}: {exc}"
                ) from exc
            transitions += 1
            nxt = harness.snapshot()
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise ProtocolViolation(
                        f"state space exceeded {max_states} states"
                    )
                seen.add(nxt)
                frontier.append((nxt, depth + 1))

    return ExplorationResult(
        states_explored=len(seen),
        transitions=transitions,
        final_states=final_states,
        max_depth=max_depth,
        state_shapes=shapes,
        counters=harness.counters.as_dict(),
    )
