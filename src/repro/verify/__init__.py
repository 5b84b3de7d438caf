"""Exhaustive model checking of the coherence controllers."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".checker": ("ExplorationResult", "ProtocolViolation", "StuckStateError", "explore"),
    ".harness": ("Harness",),
})
