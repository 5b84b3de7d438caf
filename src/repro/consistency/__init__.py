"""Memory consistency models (SC and WO)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".models": (
        "RELEASE_CONSISTENCY", "SEQUENTIAL_CONSISTENCY", "WEAK_ORDERING",
        "ConsistencyModel", "model_by_name",
    ),
})
