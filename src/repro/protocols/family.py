"""The protocol family.

Seven protocols share the DASH mechanism (see :mod:`repro.protocols.base`
for the hook contract); W-I is :class:`~repro.protocols.base.Protocol`
itself:

* :class:`AdaptiveMigratory` — the paper's contribution ("AD"): the
  directory nominates blocks migratory and a Migrating owner refuses
  read-only sharing with NoMig.  Detection and migration live in the
  controllers' migratory paths, switched by the three migratory hooks.
* :class:`AdaptiveRxqRevert` — AD with Figure 4's dashed arrows
  ("AD-RXQ"): an Rxq demotes a migratory block to Dirty-Remote.
* :class:`AdaptiveNoNomig` — AD without the NoMig revert ("AD-NONOMIG",
  the Section 5.4 ablation).
* :class:`Mesi` — grants uncached reads exclusively (E state, realized
  as a clean ``STATE_M`` line); the silent E→M promotion is the same
  local write the adaptive protocol's Migrating state uses, and a
  forwarded request at a clean-exclusive owner downgrades or transfers
  it like a Dirty line.
* :class:`Dragon` — write-update: stores to shared lines commit at home
  (Wu/Wup) and update the other sharers in place (Upd/Uack); a sole
  sharer is granted exclusivity instead, so private data still writes
  locally.
* :class:`Hybrid` — Dragon's update flow under a competitive budget: the
  directory tracks unconsumed updates per line and falls back to the
  invalidation flow once ``policy.update_threshold`` is reached; a
  consumer read resets the count.
"""

from __future__ import annotations

from repro.coherence.messages import MsgKind
from repro.protocols.base import Protocol


class AdaptiveMigratory(Protocol):
    adaptive = True


class AdaptiveRxqRevert(AdaptiveMigratory):
    rxq_reverts_to_ordinary = True


class AdaptiveNoNomig(AdaptiveMigratory):
    nomig_enabled = False


class Mesi(Protocol):
    grant_exclusive_on_read = True
    clean_exclusive = True


class Dragon(Protocol):
    store_kind = MsgKind.WU
    is_update = True

    def use_update(self, n_others: int, upd_count: int) -> bool:
        return True


class Hybrid(Dragon):
    def use_update(self, n_others: int, upd_count: int) -> bool:
        return upd_count < self.policy.update_threshold
