"""The coherence protocol family.

A protocol is a behavior object behind a stable controller/directory
interface (:mod:`repro.protocols.base`); the family
(:mod:`repro.protocols.family`) is the paper's W-I/AD pair plus MESI,
Dragon write-update, and the competitive update/invalidate hybrid, and
has no other members.  Resolve names with :func:`get_protocol` /
:func:`policy_for`; controllers bind behavior with :func:`behavior_for`.
Migratory detection is not a behavior hook: it lives in the directory's
migratory paths, switched by ``ProtocolPolicy.adaptive``.
"""

from repro.protocols.base import Protocol
from repro.protocols.family import (
    AdaptiveMigratory,
    Dragon,
    Hybrid,
    Mesi,
    WriteInvalidate,
)
from repro.protocols.registry import (
    available_protocols,
    behavior_for,
    default_policies,
    get_protocol,
    policy_for,
)

__all__ = [
    "AdaptiveMigratory",
    "Dragon",
    "Hybrid",
    "Mesi",
    "Protocol",
    "WriteInvalidate",
    "available_protocols",
    "behavior_for",
    "default_policies",
    "get_protocol",
    "policy_for",
]
