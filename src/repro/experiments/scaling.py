"""Section 6: system-size scaling.

The paper argues the adaptive technique matters *more* at scale: "for
larger system configurations it will be more difficult to obtain a
scalable bandwidth.  Secondly, latencies will be larger and thus, the
access penalty due to invalidation requests will be higher."  It also
notes (via Gupta & Weber's 8/16/32-processor data) that the *amount* of
migratory sharing is independent of system size.

We sweep mesh sizes with the distilled migratory workload (constant work
per processor) and measure the W-I/AD execution-time ratio and the
single-invalidation fraction at each size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, run_pairs
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult
from repro.stats.sharing_profile import invalidation_profile


@dataclass
class ScalingPoint:
    mesh: Tuple[int, int]
    wi: RunResult
    ad: RunResult

    @property
    def nodes(self) -> int:
        return self.mesh[0] * self.mesh[1]

    @property
    def etr(self) -> float:
        return self.wi.execution_time / max(1, self.ad.execution_time)

    @property
    def single_invalidation_fraction(self) -> float:
        return invalidation_profile(self.wi).single_invalidation_fraction


def run_scaling(
    meshes: Tuple[Tuple[int, int], ...] = ((2, 2), (4, 4), (8, 8)),
    iterations: int = 20,
    check_coherence: bool = True,
    workers: int = 1,
    store=None,
) -> List[ScalingPoint]:
    specs = []
    for width, height in meshes:
        nodes = width * height
        config = MachineConfig(
            mesh_width=width, mesh_height=height, check_coherence=check_coherence
        )
        for policy in (
            ProtocolPolicy.write_invalidate(),
            ProtocolPolicy.adaptive_default(),
        ):
            # Counters scale with the machine so per-processor contention
            # (and thus migratory behaviour) stays constant.
            specs.append(
                RunSpec.make(
                    "migratory-counters",
                    policy,
                    config=config,
                    check_coherence=check_coherence,
                    tag=f"{width}x{height}/{policy.name}",
                    num_counters=max(2, nodes // 2),
                    iterations=iterations,
                    record_lines=2,
                )
            )
    pairs = run_pairs(specs, workers=workers, store=store)
    return [
        ScalingPoint(mesh=mesh, wi=wi, ad=ad)
        for mesh, (wi, ad) in zip(meshes, pairs)
    ]


def render_scaling(points: List[ScalingPoint]) -> str:
    lines = [
        "Section 6: system-size scaling (migratory counters)",
        f"{'mesh':<8}{'nodes':>6}{'T(W-I)':>10}{'T(AD)':>10}{'ETR':>7}"
        f"{'1-inval frac':>14}",
    ]
    for point in points:
        lines.append(
            f"{point.mesh[0]}x{point.mesh[1]:<6}{point.nodes:>6}"
            f"{point.wi.execution_time:>10}{point.ad.execution_time:>10}"
            f"{point.etr:>7.2f}{point.single_invalidation_fraction:>14.1%}"
        )
    lines.append(
        "paper: migratory sharing (single-invalidation dominance) is "
        "independent of system size; AD's benefit grows with latency"
    )
    return "\n".join(lines)
