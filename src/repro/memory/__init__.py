"""Per-node memory hierarchy: cache array, local bus, memory module."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bus": ("LocalBus",),
    ".cache": (
        "READABLE_STATES", "WRITABLE_STATES", "CacheArray",
        "CacheGeometryError", "CacheLine", "CacheState",
    ),
    ".dram": ("MemoryModule",),
})
