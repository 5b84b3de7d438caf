"""Machine configuration and assembly."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".allocator": ("PagePlacement", "SharedAllocator", "SharedArray"),
    ".config": ("MachineConfig",),
    ".result": ("RunResult",),
    ".system": ("Machine",),
})
