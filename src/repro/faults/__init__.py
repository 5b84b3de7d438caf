"""Deterministic fault injection and structured stall diagnostics.

This package is the robustness substrate of the reproduction:

* :class:`FaultConfig` / :class:`FaultPlan` — a seeded, reproducible plan
  of *timing* perturbations (message delay, same-source reordering,
  forced NAKs via spurious owner evictions, per-node bus/memory
  slowdowns).  Faults provoke the protocol's transient windows — the
  writeback-vs-forward NAK race, merged requests, migratory flips —
  without ever violating coherence: every injected event corresponds to
  a legal (if unlucky) hardware schedule, so the
  :class:`~repro.coherence.checker.CoherenceChecker` must stay clean
  under any plan.
* :class:`DiagnosticDump` — a structured snapshot of everything a wedged
  simulation can tell us: pending MSHRs, busy directory entries and
  their queues, the messages the event queue holds, and per-processor
  stall reasons; rendered as text and JSON.

See EXPERIMENTS.md ("Chaos runs") for the experiment harness built on
top (``repro-sim chaos``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnostics": ("DiagnosticDump", "dump_machine", "dump_snoopy"),
    "..machine.config": ("FaultConfig",),
    ".plan": ("FaultPlan",),
})
