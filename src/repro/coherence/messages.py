"""Coherence protocol message vocabulary.

Message names follow the paper's figures:

* Figure 2(a) read miss to a dirty block: ``Rr`` (read-miss request),
  forwarded ``Rr`` (we call it ``FWD_RR``), ``Rp`` (read reply with data),
  ``Sw`` (sharing writeback to home, with data).
* Figure 2(b) read-exclusive: ``Rxq`` (request), ``Rxp`` (reply with data),
  ``Inv`` (invalidation), ``Iack`` (invalidation acknowledge, sent to the
  requester).
* Figure 3 migratory read: ``Mr`` (migratory read forward), ``Mack``
  (ownership + data to the requester), ``DT`` (dirty-transfer notice to
  home), ``MIack`` (home's directory-updated acknowledge).
* Section 3.4: ``NoMig`` (owner refuses migration, block reverts to
  ordinary; carries the writeback data, playing Sw's role as well).

Plus the bookkeeping messages every real directory protocol needs:
``Wb``/``Wack`` for replacement writebacks, ``Xfer`` for dirty ownership
transfer on a forwarded read-exclusive, and ``Nak`` for forwards that
reach a cache which has already written the block back.

Sizes follow the paper's Section 5.2 accounting: a 40-bit header on every
message, plus 128 bits on data-carrying ones.

Hot-path layout
---------------

Per-kind facts (size, data payload, directory-vs-cache destination, which
mesh) are precomputed once onto the :class:`MsgKind` members themselves
(``kind.bits``, ``kind.carries_data``, ``kind.to_directory``, ``kind.net``,
``kind.net_idx``, ``kind.index``) so the send/deliver path never hashes an
enum into a frozenset.  ``kind.index``/``kind.net_idx`` are the keys into
the transport's kind-indexed accounting arrays and mesh table — per-event
dispatch is index arithmetic, not dict lookups.

:class:`CoherenceMessage` is a standalone ``__slots__`` class (it does
not inherit :class:`~repro.network.message.NetworkMessage`, whose
``__init__`` chain would cost a second Python call per message).  A
message is plain data: queues and latches hold it as long as they need
it, and reference counting frees it after the last one drops it.
"""

from __future__ import annotations

import enum

from repro.network.message import DATA_BITS, HEADER_BITS

__all__ = [
    "CoherenceMessage",
    "DATA_KINDS",
    "DIRECTORY_KINDS",
    "KINDS_BY_INDEX",
    "MsgKind",
    "NUM_KINDS",
    "REPLY_NET",
    "REPLY_NET_IDX",
    "REPLY_NET_KINDS",
    "REQUEST_NET",
    "REQUEST_NET_IDX",
    "message_bits",
]

#: Mesh names (mirrored by repro.network.interface, which re-exports them;
#: defined here to keep this module import-light on the hot path).
REQUEST_NET = "request"
REPLY_NET = "reply"


class MsgKind(enum.Enum):
    # Requester -> home.
    RR = "Rr"
    RXQ = "Rxq"
    # Home -> owner cache (forwards).
    FWD_RR = "FwdRr"
    FWD_RXQ = "FwdRxq"
    MR = "Mr"
    # Home or owner -> requester cache (replies).
    RP = "Rp"
    RXP = "Rxp"
    MACK = "Mack"
    # Home -> sharer caches.
    INV = "Inv"
    # Sharer -> requester.
    IACK = "Iack"
    # Owner -> home.
    SW = "Sw"
    DT = "DT"
    XFER = "Xfer"
    NOMIG = "NoMig"
    NAK = "Nak"
    # Replacement writebacks.
    WB = "Wb"
    WACK = "Wack"
    # Home -> requester (adaptive: directory-updated acknowledge).
    MIACK = "MIack"
    # Write-update protocols (Dragon / hybrid), appended after the paper's
    # vocabulary so existing kind indices stay stable:
    # Writer -> home: commit a write to a shared line (carries the data).
    WU = "Wu"
    # Home -> writer: write committed; carries the new version and the
    # number of Uack acknowledgements to collect (``n_invals`` slot).
    WUP = "Wup"
    # Home -> sharer: update the cached copy in place (carries the data).
    UPD = "Upd"
    # Sharer -> writer: update applied (collected like Iacks).
    UACK = "Uack"


#: Message kinds that carry a cache line of data.
DATA_KINDS = frozenset(
    {
        MsgKind.RP,
        MsgKind.RXP,
        MsgKind.MACK,
        MsgKind.SW,
        MsgKind.NOMIG,
        MsgKind.WB,
        MsgKind.WU,
        MsgKind.WUP,
        MsgKind.UPD,
    }
)

#: Kinds delivered to a home directory controller (everything else goes to
#: a cache controller).
DIRECTORY_KINDS = frozenset(
    {
        MsgKind.RR,
        MsgKind.RXQ,
        MsgKind.SW,
        MsgKind.DT,
        MsgKind.XFER,
        MsgKind.NOMIG,
        MsgKind.NAK,
        MsgKind.WB,
        MsgKind.WU,
    }
)

#: Kinds that travel on the reply mesh (data replies and acknowledgements
#: flowing back toward a requester); all others use the request mesh.
REPLY_NET_KINDS = frozenset(
    {
        MsgKind.RP,
        MsgKind.RXP,
        MsgKind.MACK,
        MsgKind.IACK,
        MsgKind.SW,
        MsgKind.NOMIG,
        MsgKind.WB,
        MsgKind.NAK,
        MsgKind.WUP,
        MsgKind.UACK,
    }
)

#: Number of message kinds (for kind-indexed accounting arrays).
NUM_KINDS = len(MsgKind)

#: Kinds ordered by ``kind.index`` (the definition order).
KINDS_BY_INDEX = tuple(MsgKind)

#: Index a transport/mesh table by ``kind.net_idx``: slot 0 is the request
#: mesh, slot 1 the reply mesh (matches ``(request_mesh, reply_mesh)``).
REQUEST_NET_IDX = 0
REPLY_NET_IDX = 1

# Precompute per-kind facts as plain attributes on the enum members: the
# transport and mesh read ``kind.bits`` / ``kind.carries_data`` /
# ``kind.to_directory`` / ``kind.net`` / ``kind.net_idx`` with attribute
# loads instead of hashing the member into a frozenset on every message.
for _i, _kind in enumerate(MsgKind):
    _kind.index = _i
    _kind.carries_data = _kind in DATA_KINDS
    _kind.to_directory = _kind in DIRECTORY_KINDS
    _kind.net = REPLY_NET if _kind in REPLY_NET_KINDS else REQUEST_NET
    _kind.net_idx = REPLY_NET_IDX if _kind in REPLY_NET_KINDS else REQUEST_NET_IDX
    _kind.bits = HEADER_BITS + (DATA_BITS if _kind in DATA_KINDS else 0)
del _i, _kind


def message_bits(kind: MsgKind) -> int:
    """Size in bits of a message of ``kind`` (paper Section 5.2)."""
    return kind.bits


class CoherenceMessage:
    """A protocol message; ``src``/``dst`` are node ids."""

    __slots__ = (
        # NetworkMessage-compatible surface (flattened into this class so
        # construction is one __init__ call, not a chain).
        "src",
        "dst",
        "bits",
        # Protocol payload.
        "kind",
        "block",
        "requester",
        "version",
        "n_invals",
        "for_write",
        "miack_needed",
        "src_is_cache",
        "trace",
    )

    def __init__(
        self,
        src: int = 0,
        dst: int = 0,
        kind: MsgKind = MsgKind.RR,
        #: Line-aligned block address the message concerns.
        block: int = 0,
        #: Node id of the original requester (for forwards/acks routed via home).
        requester: int = 0,
        #: Data version carried by data messages (coherence checking).
        version: int = 0,
        #: For RXP: number of invalidation acks the requester must collect.
        n_invals: int = 0,
        #: For MR: the requester's access is a write (suppresses NoMig revert).
        for_write: bool = False,
        #: For MACK: whether the requester must hold the line unreplaceable
        #: until home's MIack arrives (False when home itself supplied the data).
        miack_needed: bool = True,
        #: True when the sending endpoint is a cache (affects local-bus timing).
        src_is_cache: bool = True,
        #: Transaction trace id (0 = untraced).  Responses produced on
        #: behalf of a traced request copy the id forward so the tracer
        #: can follow the transaction across controllers.
        trace: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.bits = kind.bits
        self.kind = kind
        self.block = block
        self.requester = requester
        self.version = version
        self.n_invals = n_invals
        self.for_write = for_write
        self.miack_needed = miack_needed
        self.src_is_cache = src_is_cache
        self.trace = trace

    def fields(self) -> tuple:
        """The constructor arguments of this message, in order:
        ``CoherenceMessage(*msg.fields())`` builds an equal message."""
        return (
            self.src, self.dst, self.kind, self.block, self.requester,
            self.version, self.n_invals, self.for_write, self.miack_needed,
            self.src_is_cache, self.trace,
        )

    @property
    def carries_data(self) -> bool:
        return self.kind.carries_data

    @property
    def dst_is_directory(self) -> bool:
        return self.kind.to_directory

    @property
    def network(self) -> str:
        return self.kind.net

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.kind.value} blk={self.block} {self.src}->{self.dst}"
            f" req={self.requester} v={self.version}>"
        )
