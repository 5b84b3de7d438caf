"""Exhaustive model checking of the coherence protocol."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".checker": ("ExplorationResult", "StuckStateError", "explore"),
    ".model": ("ProtocolModel", "ProtocolViolation", "State"),
})
