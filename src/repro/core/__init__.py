"""The paper's contribution: adaptive detection of migratory sharing.

This package holds the protocol-independent pieces of the adaptive
extension: the nomination predicate of Figure 4 and the protocol names a
machine is configured with (:class:`~repro.core.policy.ProtocolPolicy`).
The Figure 4 state machine itself is the home directory,
:mod:`repro.coherence.directory`, which calls the predicate; its tests
drive the real controllers through :class:`repro.verify.Harness`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".detection": ("should_nominate",),
    ".policy": ("ProtocolPolicy",),
})
