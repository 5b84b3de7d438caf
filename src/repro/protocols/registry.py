"""Protocol registry: name -> behavior class, policy -> behavior object.

``get_protocol`` resolves user-facing names (CLI ``--protocol``, sweep
specs, serialized policies) to a :class:`Protocol` class of the family;
it accepts the canonical lower-case names plus the spellings the paper
tables use ("W-I", "AD", including the AD ablation spellings).
``behavior_for`` builds (and caches) the behavior instance a controller
consults — policies are frozen dataclasses, so one instance per distinct
policy suffices.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.core.policy import ProtocolPolicy
from repro.protocols.base import Protocol
from repro.protocols.family import (
    AdaptiveMigratory,
    Dragon,
    Hybrid,
    Mesi,
    WriteInvalidate,
)

#: Canonical name -> behavior class, in sweep order.
_REGISTRY: Dict[str, Type[Protocol]] = {
    "wi": WriteInvalidate,
    "ad": AdaptiveMigratory,
    "mesi": Mesi,
    "dragon": Dragon,
    "hybrid": Hybrid,
}

#: Alias spellings (upper-cased for lookup) -> canonical registry name.
#: The AD ablations resolve to the "ad" behavior; their knobs live on the
#: policy (see ``policy_for``).
_ALIASES = {
    "W-I": "wi",
    "WI": "wi",
    "AD": "ad",
    "AD-RXQ": "ad",
    "AD-NONOMIG": "ad",
    "MESI": "mesi",
    "DRAGON": "dragon",
    "HYBRID": "hybrid",
}


def available_protocols() -> Tuple[str, ...]:
    """Canonical protocol names, in sweep order."""
    return tuple(_REGISTRY)


def get_protocol(name: str) -> Type[Protocol]:
    """Resolve a protocol name (canonical or alias) to its class."""
    canonical = _ALIASES.get(name.upper(), name.lower())
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def policy_for(name: str) -> ProtocolPolicy:
    """Default :class:`ProtocolPolicy` for a protocol name or alias.

    The AD ablation spellings map to the matching policy variants:
    ``"AD-RXQ"`` enables the Figure 4 dashed-arrow demotion and
    ``"AD-NONOMIG"`` disables the NoMig revert.
    """
    upper = name.upper()
    if upper == "AD-RXQ":
        return ProtocolPolicy(adaptive=True, rxq_reverts_to_ordinary=True)
    if upper == "AD-NONOMIG":
        return ProtocolPolicy(adaptive=True, nomig_enabled=False)
    return get_protocol(name).default_policy()


_BEHAVIOR_CACHE: Dict[ProtocolPolicy, Protocol] = {}


def behavior_for(policy: ProtocolPolicy) -> Protocol:
    """The (cached) behavior object a controller consults for ``policy``."""
    behavior = _BEHAVIOR_CACHE.get(policy)
    if behavior is None:
        _BEHAVIOR_CACHE[policy] = behavior = get_protocol(policy.kind)(policy)
    return behavior


def default_policies() -> List[ProtocolPolicy]:
    """One default policy per protocol of the family (N-way sweep order)."""
    return [cls.default_policy() for cls in _REGISTRY.values()]
