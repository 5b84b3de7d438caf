"""Wormhole-routed mesh interconnect (two networks: requests and replies)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".interface": ("REPLY", "REQUEST", "Fabric"),
    ".mesh": ("Mesh",),
    ".message": ("DATA_BITS", "HEADER_BITS", "NetworkMessage"),
})
