"""Bus-based snoopy variant of the adaptive protocol (paper Section 6)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bus": ("BusOp", "BusTiming", "SnoopBus", "transaction_bits"),
    ".machine": ("SnoopyConfig", "SnoopyMachine", "SnoopyRunResult"),
    ".protocol": ("BlockInfo", "SnoopyCache", "SnoopySystemState"),
})
