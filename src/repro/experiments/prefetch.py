"""Section 6 comparison: adaptive protocol vs software rx-prefetching.

The paper: "An alternative to the adaptive technique is to use
software-controlled, non-binding read-exclusive prefetching [Mowry &
Gupta].  Although this technique can be as effective, it relies on the
programmer/compiler to detect the occurrence of read-modify-write
operations on shared data which in general can be difficult."

We run the distilled migratory pattern three ways on the same machine:

* **W-I** — the baseline;
* **W-I + PF** — baseline protocol, workload annotated with perfect
  read-exclusive prefetches at critical-section entry (the best case a
  compiler could achieve);
* **AD** — the adaptive protocol, unannotated workload.

Expected shape: both W-I+PF and AD eliminate nearly all the write stall;
AD matches the *hand-annotated* software scheme with zero programmer
effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.policy import ProtocolPolicy
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.machine.system import Machine
from repro.workloads.synthetic import MigratoryCounters


@dataclass
class PrefetchComparison:
    baseline: RunResult
    prefetch: RunResult
    adaptive: RunResult

    @property
    def prefetch_speedup(self) -> float:
        return self.baseline.execution_time / max(1, self.prefetch.execution_time)

    @property
    def adaptive_speedup(self) -> float:
        return self.baseline.execution_time / max(1, self.adaptive.execution_time)


def run_prefetch_comparison(
    iterations: int = 30,
    num_counters: int = 8,
    record_lines: int = 2,
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
) -> PrefetchComparison:
    base = config or MachineConfig.dash_default()

    def run(policy: ProtocolPolicy, use_prefetch: bool) -> RunResult:
        cfg = base.with_(policy=policy, check_coherence=check_coherence)
        machine = Machine(cfg)
        workload = MigratoryCounters(
            cfg.num_nodes,
            num_counters=num_counters,
            iterations=iterations,
            record_lines=record_lines,
            use_prefetch=use_prefetch,
        )
        return machine.run(workload.programs())

    return PrefetchComparison(
        baseline=run(ProtocolPolicy("W-I"), False),
        prefetch=run(ProtocolPolicy("W-I"), True),
        adaptive=run(ProtocolPolicy("AD"), False),
    )


def render_prefetch(comparison: PrefetchComparison) -> str:
    rows = [
        ("W-I", comparison.baseline),
        ("W-I + rx-prefetch", comparison.prefetch),
        ("AD", comparison.adaptive),
    ]
    lines = [
        "Section 6: adaptive protocol vs software read-exclusive prefetch",
        f"{'variant':<20}{'time':>10}{'write stall':>13}{'rxq':>7}{'traffic':>10}",
    ]
    for label, result in rows:
        lines.append(
            f"{label:<20}{result.execution_time:>10}"
            f"{result.aggregate_breakdown.write_stall:>13}"
            f"{result.counter('rxq_received'):>7}"
            f"{result.network_bits:>10}"
        )
    lines.append(
        "paper: prefetching 'can be as effective' but needs compiler support"
    )
    return "\n".join(lines)
