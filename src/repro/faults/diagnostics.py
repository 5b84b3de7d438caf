"""Structured deadlock/livelock diagnostics.

A :class:`DiagnosticDump` is everything a wedged simulation can tell a
human (or a triage script) about *why* it is wedged:

* per-processor stall reasons (finished / blocked on a block / draining
  a fence / parked at a lock or barrier);
* every pending MSHR per cache controller, with its age and ack state;
* every directory entry in a transient state (busy, awaiting a
  writeback, or holding queued requests) with its ``pending`` queue;
* every coherence message a pending event holds, read from the event
  queue in firing order: when that event fires (``due``) and which
  callback it runs (``via``).  A message via ``Transport.send`` is a
  reply still waiting out its service delay; the others are the
  transport's ``in_flight`` messages.

It renders as indented text (attached to ``DeadlockError`` /
``LivelockError`` messages) and as a JSON-serializable dict (carried
across process boundaries by the parallel runner's ``RunError``).
Builders exist for both machine flavours so the directory and snoopy
machines fail identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class DiagnosticDump:
    """A structured snapshot of a stuck (or suspect) simulation."""

    reason: str
    sim_time: int
    events_processed: int
    processors: List[Dict[str, Any]] = field(default_factory=list)
    mshrs: List[Dict[str, Any]] = field(default_factory=list)
    transients: List[Dict[str, Any]] = field(default_factory=list)
    messages: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """A plain JSON-serializable dict (picklable across processes)."""
        return {
            "reason": self.reason,
            "sim_time": self.sim_time,
            "events_processed": self.events_processed,
            "processors": self.processors,
            "mshrs": self.mshrs,
            "transients": self.transients,
            "messages": self.messages,
            "extra": self.extra,
        }

    def to_json_str(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(doc: Dict[str, Any]) -> "DiagnosticDump":
        return DiagnosticDump(
            reason=doc.get("reason", "unknown"),
            sim_time=doc.get("sim_time", 0),
            events_processed=doc.get("events_processed", 0),
            processors=list(doc.get("processors", ())),
            mshrs=list(doc.get("mshrs", ())),
            transients=list(doc.get("transients", ())),
            messages=list(doc.get("messages", ())),
            extra=dict(doc.get("extra", {})),
        )

    # ------------------------------------------------------------------
    # Text rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [
            f"=== diagnostic dump ({self.reason}) at t={self.sim_time} "
            f"after {self.events_processed} events ==="
        ]
        stalled = [p for p in self.processors if not p.get("done")]
        lines.append(f"processors ({len(stalled)} not finished):")
        for p in self.processors:
            lines.append(f"  node {p['node']:>2}: {p.get('state', '?')}")
        lines.append(f"pending MSHRs ({len(self.mshrs)}):")
        for m in self.mshrs:
            lines.append(
                f"  node {m['node']:>2} block {m['block']}: {m['op']}"
                f"{' upgrade' if m.get('upgrade') else ''}"
                f"{' prefetch' if m.get('prefetch') else ''}"
                # Update-protocol transients: the write already serialized
                # at home (waiting on Uacks), or a raced Upd outran the
                # fill and pinned a newer version.
                f"{' committed' if m.get('committed') else ''}"
                + (
                    f" upd_version={m['update_version']}"
                    if m.get("update_version")
                    else ""
                )
                + f" age={m.get('age', '?')}"
                f" data={'yes' if m.get('data_received') else 'no'}"
                f" acks={m.get('acks_received', 0)}/{m.get('acks_expected')}"
                f" waiters={m.get('waiters', 0)} deferred={m.get('deferred', 0)}"
            )
        lines.append(f"directory transient entries ({len(self.transients)}):")
        for t in self.transients:
            pending = ", ".join(
                f"{q['kind']}<-{q['requester']}" for q in t.get("pending", ())
            )
            inflight = t.get("inflight")
            inflight_txt = (
                f" inflight={inflight['kind']}<-{inflight['requester']}"
                if inflight
                else ""
            )
            upd_count = t.get("upd_count", 0)
            lines.append(
                f"  home {t['home']:>2} block {t['block']}: {t['state']}"
                f" owner={t.get('owner')}"
                f"{' busy' if t.get('busy') else ''}"
                f"{' awaiting_wb' if t.get('awaiting_wb') else ''}"
                + (f" upd_count={upd_count}" if upd_count else "")
                + f"{inflight_txt}"
                f" pending=[{pending}]"
            )
        lines.append(f"in-flight messages ({len(self.messages)}):")
        for m in self.messages:
            lines.append(
                f"  {m['kind']} blk={m.get('block')} {m['src']}->{m['dst']}"
                f" due={m.get('due')} via={m.get('via')}"
            )
        for name, value in sorted(self.extra.items()):
            lines.append(f"{name}: {value}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Stall-reason synthesis
# ----------------------------------------------------------------------
def _stall_reason(proc: Dict[str, Any], cache_diag: Optional[Dict[str, Any]],
                  sync_diag: Dict[str, Any]) -> str:
    """A one-line human explanation of what one processor is doing."""
    node = proc["node"]
    if proc.get("done"):
        return f"finished at t={proc.get('finished_at')}"
    if cache_diag is not None and cache_diag["mshrs"]:
        parts = ", ".join(
            f"block {m['block']} ({m['op']}, age {m['age']})"
            for m in cache_diag["mshrs"]
        )
        return f"blocked on memory: {parts}"
    if proc.get("fence_waiting"):
        return (
            f"draining fence: {proc.get('outstanding_writes', 0)} "
            "outstanding write(s)"
        )
    for barrier_id, nodes in sync_diag.get("barrier_waiters", {}).items():
        if node in nodes:
            return f"waiting at barrier {barrier_id} ({len(nodes)} arrived)"
    for lock_id, nodes in sync_diag.get("lock_waiters", {}).items():
        if node in nodes:
            holder = sync_diag.get("locks_held", {}).get(lock_id)
            return f"waiting for lock {lock_id} (held by node {holder})"
    return "runnable (no blocking state recorded)"


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _queued_messages(machine) -> List[Dict[str, Any]]:
    """Every coherence message a pending event holds, in firing order.

    A fault plan's reorder flush keeps its message after a swap released
    it early, so a flush of a message the plan no longer holds is skipped.
    """
    from repro.coherence.messages import CoherenceMessage

    entries = []
    for due, callback, args in machine.sim.queued():
        for msg in args:
            if not isinstance(msg, CoherenceMessage):
                continue
            via = callback.__qualname__
            if via == "FaultPlan._flush" and not machine.fault_plan.holds(msg):
                continue
            entries.append({
                "kind": msg.kind.value,
                "src": msg.src,
                "dst": msg.dst,
                "block": msg.block,
                "requester": msg.requester,
                "due": due,
                "via": via,
            })
    return entries


def dump_machine(machine, reason: str) -> DiagnosticDump:
    """Snapshot a directory (CC-NUMA) :class:`~repro.machine.system.Machine`."""
    sync_diag = machine.sync.introspect()
    cache_diags = [cache.introspect() for cache in machine.caches]
    processors = []
    for proc, cache_diag in zip(machine.processors, cache_diags):
        diag = proc.introspect()
        diag["state"] = _stall_reason(diag, cache_diag, sync_diag)
        processors.append(diag)
    mshrs = [m for diag in cache_diags for m in diag["mshrs"]]
    transients = [t for directory in machine.directories
                  for t in directory.introspect()]
    extra: Dict[str, Any] = {"sync": sync_diag}
    writebacks = {
        diag["node"]: diag["writebacks_in_flight"]
        for diag in cache_diags
        if diag["writebacks_in_flight"]
    }
    if writebacks:
        extra["writebacks_in_flight"] = writebacks
    if machine.fault_plan is not None:
        extra["fault_plan"] = machine.fault_plan.introspect()
    return DiagnosticDump(
        reason=reason,
        sim_time=machine.sim.now,
        events_processed=machine.sim.events_processed,
        processors=processors,
        mshrs=mshrs,
        transients=transients,
        messages=_queued_messages(machine),
        extra=extra,
    )


def dump_snoopy(machine, reason: str) -> DiagnosticDump:
    """Snapshot a bus-based :class:`~repro.snoopy.machine.SnoopyMachine`.

    The snoopy protocol has no transient directory states or MSHRs (bus
    transactions are atomic), so those sections stay empty; processor
    stall reasons and sync state tell the whole story.
    """
    sync_diag = machine.sync.introspect()
    processors = []
    for proc in machine.processors:
        diag = proc.introspect()
        diag["state"] = _stall_reason(diag, None, sync_diag)
        processors.append(diag)
    return DiagnosticDump(
        reason=reason,
        sim_time=machine.sim.now,
        events_processed=machine.sim.events_processed,
        processors=processors,
        extra={
            "sync": sync_diag,
            "bus_transactions": machine.bus.transactions,
        },
    )
