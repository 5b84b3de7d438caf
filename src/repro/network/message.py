"""Network message base type and size accounting.

The paper's traffic arithmetic (Section 5.2) is explicit about sizes:

* every message carries a 40-bit header — 4 + 4 bits of issuing/receiving
  node identity, a 28-bit block address and a 4-bit command;
* data-carrying messages (replies, sharing writebacks, writebacks) add one
  cache line of 16 bytes = 128 bits.

We reproduce exactly that accounting so that the 704-vs-328-bit comparison
falls out of the simulator rather than being hard-coded.

``NetworkMessage`` is a ``__slots__`` class rather than a dataclass: one
instance exists per protocol message, which makes its layout and
construction cost part of the simulator's hot path.
"""

from __future__ import annotations

#: Bits of header per message: src id (4) + dst id (4) + address (28) + command (4).
HEADER_BITS = 40
#: Bits of payload for a 16-byte cache line.
DATA_BITS = 128


class NetworkMessage:
    """A unit of transfer on one of the two mesh networks.

    ``src`` and ``dst`` are node ids.  ``bits`` is the total size, which
    sets the message's link occupancy (flit count).
    """

    __slots__ = ("src", "dst", "bits")

    def __init__(self, src: int = 0, dst: int = 0, bits: int = HEADER_BITS) -> None:
        self.src = src
        self.dst = dst
        self.bits = bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkMessage(src={self.src}, dst={self.dst}, bits={self.bits})"
