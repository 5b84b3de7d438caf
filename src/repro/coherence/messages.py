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

:class:`CoherenceMessage` is a standalone ``__slots__`` class (it no
longer inherits :class:`~repro.network.message.NetworkMessage`, whose
``__init__`` chain cost a second Python call per message; it keeps the
same attribute surface) with a free-list pool: the transport recycles a
message once its handler has consumed it (see ``retained`` below), so
steady-state simulation allocates almost no message objects.

Pool debugging
--------------

Set ``REPRO_POOL_DEBUG=1`` (read at import time) to count every
construction and release and track live/free high-water marks.
:func:`pool_stats` reports them and :func:`pool_check` raises
:class:`PoolLeakError` on retain/release imbalance — the machine calls it
at clean simulation end.  The counters cost one global-bool branch per
message when disabled.
"""

from __future__ import annotations

import enum
import os
from typing import Dict, List, Optional

from repro.network.message import DATA_BITS, HEADER_BITS, _msg_ids

__all__ = [
    "CoherenceMessage",
    "DATA_KINDS",
    "DIRECTORY_KINDS",
    "KINDS_BY_INDEX",
    "MsgKind",
    "NUM_KINDS",
    "POOL_DEBUG",
    "PoolLeakError",
    "REPLY_NET",
    "REPLY_NET_IDX",
    "REPLY_NET_KINDS",
    "REQUEST_NET",
    "REQUEST_NET_IDX",
    "message_bits",
    "pool_check",
    "pool_outstanding",
    "pool_stats",
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


class PoolLeakError(RuntimeError):
    """Raised by :func:`pool_check` when message retain/release counts
    don't balance at the end of a simulation (``REPRO_POOL_DEBUG=1``)."""


#: Whether pool accounting is active (env ``REPRO_POOL_DEBUG``, read once
#: at import so the per-message cost is a single global-bool branch).
POOL_DEBUG = os.environ.get("REPRO_POOL_DEBUG", "") not in ("", "0")

# Debug counters (only maintained when POOL_DEBUG; all monotone except the
# derived live count).
_pool_acquired = 0
_pool_released = 0
_pool_live_high = 0
_pool_free_high = 0


class CoherenceMessage:
    """A protocol message; ``src``/``dst`` are node ids.

    Pooling contract: messages are created with the normal constructor
    (which transparently reuses a free-listed instance when one exists)
    and returned to the pool by :meth:`release`.  Code that stores a
    message past the handler that received it — directory pending queues,
    in-flight transaction latches, MSHR deferred lists — must set
    ``retained = True`` so the transport's dispatch loop leaves it alive;
    whoever later consumes the message clears the flag and releases it.
    """

    __slots__ = (
        # NetworkMessage-compatible surface (flattened into this class so
        # construction is one __init__ call, not a chain).
        "src",
        "dst",
        "bits",
        "uid",
        "sent_at",
        "delivered_at",
        # Protocol payload.
        "kind",
        "block",
        "requester",
        "version",
        "n_invals",
        "for_write",
        "miack_needed",
        "src_is_cache",
        "retained",
        "trace",
    )

    #: Free list of recycled instances (class-level, bounded).
    _free: List["CoherenceMessage"] = []
    _MAX_FREE = 1024

    def __new__(cls, *args, **kwargs):
        if cls is CoherenceMessage:
            free = cls._free
            if free:
                return free.pop()
        return object.__new__(cls)

    def __init__(
        self,
        src: int = 0,
        dst: int = 0,
        bits: int = 0,  # ignored: derived from kind
        uid: Optional[int] = None,
        sent_at: Optional[int] = None,
        delivered_at: Optional[int] = None,
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
        #: can follow the transaction across controllers; the pool resets
        #: it on every reuse, so a recycled message can never leak an old
        #: transaction's id.
        trace: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.bits = kind.bits
        #: Monotone id used only for deterministic tie-breaking and debugging.
        self.uid = next(_msg_ids) if uid is None else uid
        #: Filled in by the mesh on delivery (for latency statistics).
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.kind = kind
        self.block = block
        self.requester = requester
        self.version = version
        self.n_invals = n_invals
        self.for_write = for_write
        self.miack_needed = miack_needed
        self.src_is_cache = src_is_cache
        self.retained = False
        self.trace = trace
        if POOL_DEBUG:
            global _pool_acquired, _pool_live_high
            _pool_acquired += 1
            live = _pool_acquired - _pool_released
            if live > _pool_live_high:
                _pool_live_high = live

    def release(self) -> None:
        """Return this instance to the free list (caller forfeits it)."""
        if type(self) is not CoherenceMessage:
            return
        if POOL_DEBUG:
            global _pool_released, _pool_free_high
            _pool_released += 1
        free = CoherenceMessage._free
        if len(free) < self._MAX_FREE:
            free.append(self)
            if POOL_DEBUG and len(free) > _pool_free_high:
                _pool_free_high = len(free)

    def flits(self, link_bits: int) -> int:
        """Number of flits on a ``link_bits``-wide link (header-rounded)."""
        return -(-self.bits // link_bits)  # ceil division

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


def pool_stats() -> Dict[str, object]:
    """Current free-list / debug-counter state.

    ``free_size`` is always meaningful; the acquire/release counters and
    high-water marks are only maintained under ``REPRO_POOL_DEBUG=1``
    (``None`` otherwise).
    """
    if POOL_DEBUG:
        return {
            "debug": True,
            "free_size": len(CoherenceMessage._free),
            "acquired": _pool_acquired,
            "released": _pool_released,
            "outstanding": _pool_acquired - _pool_released,
            "live_high_water": _pool_live_high,
            "free_high_water": _pool_free_high,
        }
    return {
        "debug": False,
        "free_size": len(CoherenceMessage._free),
        "acquired": None,
        "released": None,
        "outstanding": None,
        "live_high_water": None,
        "free_high_water": None,
    }


def pool_outstanding() -> Optional[int]:
    """Messages constructed but not yet released (None unless debugging)."""
    if POOL_DEBUG:
        return _pool_acquired - _pool_released
    return None


def pool_check(baseline_outstanding: int, context: str = "") -> None:
    """Raise :class:`PoolLeakError` if outstanding messages grew past
    ``baseline_outstanding`` (the count snapshotted before the run).

    No-op unless ``REPRO_POOL_DEBUG=1``.  A *clean* simulation end must
    release every message it constructed; a positive delta means some
    handler retained a message and never released it (a negative delta
    means a double release).
    """
    if not POOL_DEBUG:
        return
    delta = (_pool_acquired - _pool_released) - baseline_outstanding
    if delta != 0:
        direction = "leaked" if delta > 0 else "double-released"
        raise PoolLeakError(
            f"message pool imbalance{f' in {context}' if context else ''}: "
            f"{abs(delta)} message(s) {direction} "
            f"(acquired={_pool_acquired}, released={_pool_released}, "
            f"baseline outstanding={baseline_outstanding})"
        )
