"""The coherence protocol family.

A protocol is a behavior object behind a stable controller/directory
interface (:mod:`repro.protocols.base`); the family
(:mod:`repro.protocols.family`) is the paper's W-I/AD pair with AD's two
ablations, plus MESI, Dragon write-update, and the competitive
update/invalidate hybrid, and has no other members.  Each protocol name
is one class: resolve names with :func:`policy_for` (defined beside
:data:`~repro.core.policy.PROTOCOL_NAMES` and re-exported here);
controllers bind behavior with :func:`behavior_for`.  Migratory
detection is switched by three hooks (``adaptive``,
``rxq_reverts_to_ordinary``, ``nomig_enabled``) that the directory's and
caches' migratory paths read.
"""

from repro.core.policy import policy_for
from repro.protocols.base import Protocol
from repro.protocols.family import (
    AdaptiveMigratory,
    AdaptiveNoNomig,
    AdaptiveRxqRevert,
    Dragon,
    Hybrid,
    Mesi,
)
from repro.protocols.registry import behavior_for, default_policies

__all__ = [
    "AdaptiveMigratory",
    "AdaptiveNoNomig",
    "AdaptiveRxqRevert",
    "Dragon",
    "Hybrid",
    "Mesi",
    "Protocol",
    "behavior_for",
    "default_policies",
    "policy_for",
]
