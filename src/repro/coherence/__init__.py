"""Directory-based cache coherence: DASH write-invalidate base protocol."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cache_ctrl": ("MSHR", "CacheController"),
    ".checker": ("CoherenceChecker", "CoherenceViolation"),
    ".directory": ("DirectoryController", "DirectoryEntry"),
    ".messages": (
        "DATA_KINDS", "DIRECTORY_KINDS", "CoherenceMessage", "MsgKind",
        "message_bits",
    ),
    ".states": ("HOME_VALID_STATES", "MIGRATORY_STATES", "DirState"),
    ".transport": ("Transport",),
})
