"""Statistics: counters and execution-time breakdowns."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".breakdown": ("StallBreakdown",),
    ".counters": ("Counters",),
})
