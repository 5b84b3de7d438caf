"""repro — reproduction of Stenström, Brorsson & Sandberg (ISCA 1993),
"An Adaptive Cache Coherence Protocol Optimized for Migratory Sharing".

Public API quick tour::

    from repro import Machine, MachineConfig, ProtocolPolicy

    config = MachineConfig.dash_default(policy=ProtocolPolicy("AD"))
    machine = Machine(config)
    result = machine.run(programs)          # one op-generator per node
    print(result.execution_time, result.counter("rxq_received"))

See :mod:`repro.workloads` for the paper's benchmark programs and
:mod:`repro.experiments` for the per-table/figure reproduction harness.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".consistency": ("SEQUENTIAL_CONSISTENCY", "WEAK_ORDERING"),
    ".core": ("ProtocolPolicy", "should_nominate"),
    ".cpu": ("Barrier", "Compute", "Lock", "Read", "Unlock", "Write"),
    ".faults": ("DiagnosticDump", "FaultConfig"),
    ".machine": ("Machine", "MachineConfig", "RunResult", "SharedAllocator"),
    ".sim.engine": ("DeadlockError", "LivelockError"),
})
__all__ += ["__version__"]
