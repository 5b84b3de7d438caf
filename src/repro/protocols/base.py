"""Protocol behavior objects: the pluggable half of the coherence engine.

The cache controller and home directory implement the *mechanism* — MSHRs,
transaction serialization, forwards, writebacks, ack collection.  A
:class:`Protocol` supplies the *policy*: which request kind a store miss
issues, whether an uncached read is granted exclusively, whether a write
to a shared line updates or invalidates the other copies, whether an
owner may hold a clean-exclusive line, and whether the adaptive migratory
extension runs.  Each protocol name is one class (see
:mod:`repro.protocols.registry`); one behavior object is built per
:class:`~repro.core.policy.ProtocolPolicy` (see
:func:`repro.protocols.registry.behavior_for`) and consulted by both
controllers and by the snoopy bus machine.  Every hook is a class
attribute except ``use_update``, so reading one costs no call.  The base
class encodes the paper's DASH write-invalidate behavior, so W-I is
simply the base with no overrides.

Hook reference
--------------

``store_kind``
    Message kind a store miss / upgrade sends to home
    (:attr:`MsgKind.RXQ` for invalidation protocols, :attr:`MsgKind.WU`
    for write-update ones).  Prefetches always use RXQ — a non-binding
    ownership hint has no data to push.
``grant_exclusive_on_read``
    Directory, uncached read: reply with Mack (installing the line
    clean-exclusive at the requester) instead of Rp (MESI's E state).
``clean_exclusive``
    Cache, forwarded request at the owner: a clean-exclusive line
    (``STATE_M`` without a write) may service FwdRr/FwdRxq like a Dirty
    line.  Off, such a forward is a protocol error.
``is_update``
    Directory accepts Wu (write-update) requests for this protocol.
``use_update(n_others, upd_count)``
    Directory, Wu to a Shared-Remote line with ``n_others`` other
    sharers already having seen ``upd_count`` unconsumed updates: True
    commits the write at home and updates the sharers in place; False
    falls back to the invalidation flow.  Only consulted when
    ``is_update`` and ``n_others > 0``.
``adaptive``
    Directory, Rxq to a Shared-Remote line: nominate the block migratory
    when :func:`~repro.core.detection.should_nominate` holds (Figure 4).
``rxq_reverts_to_ordinary``
    Directory, Rxq to a migratory block: demote it to Dirty-Remote
    instead of keeping it migratory (Figure 4's dashed arrows).
``nomig_enabled``
    Cache, migratory read at a Migrating line its owner has not written:
    refuse the migration with NoMig and revert the block to ordinary
    (Section 3.4).  Only reachable when ``adaptive``.
"""

from __future__ import annotations

from repro.coherence.messages import MsgKind
from repro.core.policy import ProtocolPolicy


class Protocol:
    """Base behavior: the paper's DASH write-invalidate ("W-I")."""

    #: See module docstring for hook semantics.
    store_kind = MsgKind.RXQ
    grant_exclusive_on_read = False
    clean_exclusive = False
    is_update = False
    adaptive = False
    rxq_reverts_to_ordinary = False
    nomig_enabled = True

    def __init__(self, policy: ProtocolPolicy) -> None:
        self.policy = policy

    def use_update(self, n_others: int, upd_count: int) -> bool:
        """Update-vs-invalidate decision for a Wu at a shared line."""
        raise NotImplementedError(
            f"{self.policy.name} is not a write-update protocol"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Protocol {self.policy.name}>"
