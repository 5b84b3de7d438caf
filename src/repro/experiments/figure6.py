"""Figure 6 reproduction: consistency models and network contention (MP3D).

The paper runs MP3D under three machine variants and both protocols,
normalizing execution time to W-I under sequential consistency:

* **SC** — sequential consistency (writes stall);
* **WO Cont.** — weak ordering with the real (contended) network: write
  latency is hidden, but the higher global request rate raises the read
  penalty for W-I; AD performs ~16% better, and AD under SC even beats
  W-I under WO;
* **WO No Cont.** — weak ordering with infinite network bandwidth (same
  latency): W-I and AD become nearly identical, confirming the WO gap is
  network contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.consistency.models import SEQUENTIAL_CONSISTENCY, WEAK_ORDERING
from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, run_many
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult

VARIANTS = ("SC", "WO Cont.", "WO No Cont.")
POLICIES = ("W-I", "AD")


@dataclass
class Figure6Cell:
    variant: str
    policy: str
    result: RunResult
    #: Execution time normalized to W-I under SC.
    normalized_time: float


def run_figure6(
    workload: str = "mp3d",
    preset: str = "default",
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    workers: int = 1,
    store=None,
) -> List[Figure6Cell]:
    base = config or MachineConfig.dash_default()
    keys = [(variant, policy_name) for variant in VARIANTS for policy_name in POLICIES]
    specs = []
    for variant, policy_name in keys:
        consistency = SEQUENTIAL_CONSISTENCY if variant == "SC" else WEAK_ORDERING
        cfg = base.with_(infinite_bandwidth=(variant == "WO No Cont."))
        specs.append(
            RunSpec.make(
                workload,
                ProtocolPolicy(policy_name),
                preset=preset,
                consistency=consistency,
                config=cfg,
                check_coherence=check_coherence,
                tag=f"{workload}/{variant}/{policy_name}",
            )
        )
    outcomes = run_many(specs, workers=workers, store=store)
    cells: Dict[tuple, RunResult] = {
        key: outcome.unwrap() for key, outcome in zip(keys, outcomes)
    }
    baseline = cells[("SC", "W-I")].execution_time
    return [
        Figure6Cell(
            variant=variant,
            policy=policy_name,
            result=result,
            normalized_time=result.execution_time / max(1, baseline),
        )
        for (variant, policy_name), result in cells.items()
    ]


def cell(cells: List[Figure6Cell], variant: str, policy: str) -> Figure6Cell:
    for c in cells:
        if c.variant == variant and c.policy == policy:
            return c
    raise KeyError((variant, policy))


def render_figure6(cells: List[Figure6Cell]) -> str:
    lines = [
        "Figure 6: MP3D execution time normalized to W-I under SC",
        f"{'variant':<14}{'W-I':>8}{'AD':>8}{'AD gain':>10}",
    ]
    for variant in VARIANTS:
        wi = cell(cells, variant, "W-I")
        ad = cell(cells, variant, "AD")
        gain = 1 - ad.normalized_time / max(1e-9, wi.normalized_time)
        lines.append(
            f"{variant:<14}{wi.normalized_time:>8.2f}{ad.normalized_time:>8.2f}"
            f"{gain:>10.1%}"
        )
    lines.append(
        "paper: AD ~16% better under WO Cont.; W-I == AD under WO No Cont.;"
        " AD under SC beats W-I under WO Cont."
    )
    return "\n".join(lines)
