"""Discrete-event simulation substrate."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("DeadlockError", "SimulationError", "Simulator"),
    ".resource": ("InfiniteResource", "Resource"),
})
