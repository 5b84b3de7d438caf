"""Processor model, operation vocabulary, and ideal synchronization."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".ops": ("Barrier", "Compute", "Lock", "Read", "Unlock", "Write"),
    ".processor": ("Processor",),
    ".sync": ("IdealSync",),
})
