"""The paper's contribution: adaptive detection of migratory sharing.

This package holds the protocol-independent pieces of the adaptive
extension — the nomination predicate, the last-writer tracker, the
reference detection FSM of Figure 4, and the policy knobs.  The timed
integration with the DASH directory lives in
:mod:`repro.coherence.directory`, which calls into these hooks.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".detection": (
        "DetectorState", "LastWriterTracker", "ReferenceDetectorFSM",
        "should_nominate",
    ),
    ".policy": ("ProtocolPolicy",),
})
