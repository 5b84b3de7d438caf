"""Ablations of the design choices DESIGN.md calls out.

1. **Rxq heuristic** (Figure 4 dashed arrows): reverting migratory blocks
   to Dirty-Remote on a read-exclusive request.  The paper: "we did not
   use this heuristic because it did not provide consistent performance
   improvements."
2. **Detection preconditions**: nominating without the N==2 or LW
   condition is not expressible in the shipped policy (the conditions are
   the contribution), but the ReadOnlySharing/ProducerConsumer micro
   workloads quantify what the conditions protect against; this module
   measures the micro-workloads under W-I vs AD.
3. **Mesh bandwidth sweep**: AD's traffic reduction matters more on
   narrower links (the paper's Section 6 bus-based discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, run_pairs
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.workloads import PAPER_BENCHMARKS


@dataclass
class HeuristicRow:
    workload: str
    default: RunResult
    with_heuristic: RunResult

    @property
    def time_ratio(self) -> float:
        """>1 means the heuristic made things slower."""
        return self.with_heuristic.execution_time / max(1, self.default.execution_time)

    @property
    def demotions(self) -> int:
        return self.with_heuristic.counter("rxq_demotions")


def run_rxq_heuristic_ablation(
    preset: str = "default",
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    workers: int = 1,
    store=None,
) -> List[HeuristicRow]:
    specs = [
        RunSpec.make(
            name, policy,
            preset=preset, config=config, check_coherence=check_coherence,
            tag=f"{name}/{policy.name}",
        )
        for name in PAPER_BENCHMARKS
        for policy in (
            ProtocolPolicy("AD"),
            ProtocolPolicy("AD-RXQ"),
        )
    ]
    pairs = run_pairs(specs, workers=workers, store=store)
    return [
        HeuristicRow(workload=name, default=default, with_heuristic=heuristic)
        for name, (default, heuristic) in zip(PAPER_BENCHMARKS, pairs)
    ]


def render_rxq_heuristic(rows: List[HeuristicRow]) -> str:
    lines = [
        "Ablation: Rxq->Dirty-Remote heuristic (Figure 4 dashed arrows)",
        f"{'app':<10}{'T(heur)/T(AD)':>14}{'demotions':>11}",
    ]
    for row in rows:
        lines.append(f"{row.workload:<10}{row.time_ratio:>14.3f}{row.demotions:>11}")
    lines.append("paper: no consistent improvement from the heuristic")
    return "\n".join(lines)


@dataclass
class BandwidthPoint:
    link_bits: int
    wi_time: int
    ad_time: int

    @property
    def etr(self) -> float:
        return self.wi_time / max(1, self.ad_time)


def run_bandwidth_sweep(
    workload: str = "mp3d",
    link_widths: tuple = (4, 8, 16, 32),
    preset: str = "default",
    check_coherence: bool = True,
    workers: int = 1,
    store=None,
) -> List[BandwidthPoint]:
    """AD's advantage grows as the network narrows (Section 6)."""
    specs = [
        RunSpec.make(
            workload, policy,
            preset=preset, config=MachineConfig.dash_default(link_bits=width),
            check_coherence=check_coherence,
            tag=f"{workload}/{width}b/{policy.name}",
        )
        for width in link_widths
        for policy in (
            ProtocolPolicy("W-I"),
            ProtocolPolicy("AD"),
        )
    ]
    pairs = run_pairs(specs, workers=workers, store=store)
    return [
        BandwidthPoint(
            link_bits=width, wi_time=wi.execution_time, ad_time=ad.execution_time
        )
        for width, (wi, ad) in zip(link_widths, pairs)
    ]

