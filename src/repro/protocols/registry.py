"""Protocol registry: name -> behavior class, policy -> behavior object.

``behavior_for`` builds (and caches) the behavior instance a controller
consults — policies are frozen dataclasses, so one instance per distinct
policy suffices.  User-facing names (CLI ``--protocol``, sweep specs,
the serve daemon's string shorthand) resolve beside
:data:`~repro.core.policy.PROTOCOL_NAMES`, with
:func:`~repro.core.policy.policy_for`.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.core.policy import PROTOCOL_NAMES, ProtocolPolicy
from repro.protocols.base import Protocol
from repro.protocols.family import (
    AdaptiveMigratory,
    AdaptiveNoNomig,
    AdaptiveRxqRevert,
    Dragon,
    Hybrid,
    Mesi,
)

#: Protocol name -> behavior class.
_CLASSES: Dict[str, Type[Protocol]] = dict(zip(PROTOCOL_NAMES, (
    Protocol, AdaptiveMigratory, AdaptiveRxqRevert, AdaptiveNoNomig,
    Mesi, Dragon, Hybrid,
)))

_BEHAVIOR_CACHE: Dict[ProtocolPolicy, Protocol] = {}


def behavior_for(policy: ProtocolPolicy) -> Protocol:
    """The (cached) behavior object a controller consults for ``policy``."""
    behavior = _BEHAVIOR_CACHE.get(policy)
    if behavior is None:
        _BEHAVIOR_CACHE[policy] = behavior = _CLASSES[policy.name](policy)
    return behavior


def default_policies() -> List[ProtocolPolicy]:
    """One default policy per protocol of the family (N-way sweep order).

    AD's two ablations are variants of AD, not members of the family.
    """
    return [ProtocolPolicy(n) for n in PROTOCOL_NAMES if not n.startswith("AD-")]
