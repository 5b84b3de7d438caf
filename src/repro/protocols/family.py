"""The protocol family.

Five protocols share the DASH mechanism (see :mod:`repro.protocols.base`
for the hook contract):

* :class:`WriteInvalidate` — the paper's baseline, behavior-free base.
* :class:`AdaptiveMigratory` — the paper's contribution; detection and
  migration live in the controllers' migratory paths and are enabled by
  ``policy.adaptive``, so the behavior object adds nothing beyond its
  default policy.
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
from repro.core.policy import ProtocolPolicy
from repro.protocols.base import Protocol


class WriteInvalidate(Protocol):
    name = "wi"

    @classmethod
    def default_policy(cls) -> ProtocolPolicy:
        return ProtocolPolicy.write_invalidate()


class AdaptiveMigratory(Protocol):
    name = "ad"

    @classmethod
    def default_policy(cls) -> ProtocolPolicy:
        return ProtocolPolicy.adaptive_default()


class Mesi(Protocol):
    name = "mesi"

    grant_exclusive_on_read = True
    clean_exclusive = True


class Dragon(Protocol):
    name = "dragon"

    store_kind = MsgKind.WU
    is_update = True

    def use_update(self, n_others: int, upd_count: int) -> bool:
        return True


class Hybrid(Dragon):
    name = "hybrid"

    def use_update(self, n_others: int, upd_count: int) -> bool:
        return upd_count < self.policy.update_threshold

    @classmethod
    def default_policy(cls) -> ProtocolPolicy:
        return ProtocolPolicy.hybrid()
