"""Section 5.4 reproduction: stability of the detection and NoMig.

The paper measures the fraction of migratory read requests that trigger a
NoMig revert: 0.5% (MP3D), 0.09% (Cholesky), 0.01% (Water) — migratory
sharing is stable once detected.  It also reports that *disabling* the
NoMig transition "impacted significantly on the performance", i.e. the
mechanism is needed; and that the Rxq→Dirty-Remote heuristic (Figure 4's
dashed arrows) "did not provide consistent performance improvements".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, run_pairs
from repro.machine.config import MachineConfig
from repro.machine.result import RunResult

PAPER_NOMIG_FRACTION = {"mp3d": 0.005, "cholesky": 0.0009, "water": 0.0001}

MIGRATORY_APPS = ("mp3d", "cholesky", "water")


@dataclass
class StabilityRow:
    workload: str
    adaptive: RunResult
    nomig_disabled: RunResult

    @property
    def nomig_fraction(self) -> float:
        """NoMig reverts per migratory read (paper's stability metric)."""
        reads = self.adaptive.counter("migratory_reads")
        if reads == 0:
            return 0.0
        return self.adaptive.counter("nomig_reverts") / reads

    @property
    def paper_fraction(self) -> float:
        return PAPER_NOMIG_FRACTION[self.workload]

    @property
    def disable_slowdown(self) -> float:
        """Execution-time penalty of running without the NoMig revert."""
        return (
            self.nomig_disabled.execution_time
            / max(1, self.adaptive.execution_time)
            - 1.0
        )


def run_section54(
    preset: str = "default",
    config: Optional[MachineConfig] = None,
    check_coherence: bool = True,
    workers: int = 1,
    store=None,
) -> List[StabilityRow]:
    specs = [
        RunSpec.make(
            name, policy,
            preset=preset, config=config, check_coherence=check_coherence,
            tag=f"{name}/{policy.name}",
        )
        for name in MIGRATORY_APPS
        for policy in (
            ProtocolPolicy.adaptive_default(),
            ProtocolPolicy(adaptive=True, nomig_enabled=False),
        )
    ]
    pairs = run_pairs(specs, workers=workers, store=store)
    return [
        StabilityRow(workload=name, adaptive=adaptive, nomig_disabled=disabled)
        for name, (adaptive, disabled) in zip(MIGRATORY_APPS, pairs)
    ]


@dataclass
class NoMigNecessity:
    """The paper's 'disabling this transition impacted significantly'.

    Our scaled benchmark runs are short enough that read-only phases are
    rare, so the necessity shows most clearly on the distilled read-only
    sharing pattern: without NoMig, blocks wrongly stuck in migratory mode
    ping-pong between readers forever.
    """

    with_nomig: RunResult
    without_nomig: RunResult

    @property
    def slowdown(self) -> float:
        return (
            self.without_nomig.execution_time
            / max(1, self.with_nomig.execution_time)
            - 1.0
        )


def run_nomig_necessity(
    read_rounds: int = 30, check_coherence: bool = True, workers: int = 1,
    store=None,
) -> NoMigNecessity:
    """Read-only sharing with and without the NoMig revert."""
    specs = [
        RunSpec.make(
            "read-only", policy,
            check_coherence=check_coherence, read_rounds=read_rounds,
            tag=f"read-only/{policy.name}",
        )
        for policy in (
            ProtocolPolicy.adaptive_default(),
            ProtocolPolicy(adaptive=True, nomig_enabled=False),
        )
    ]
    [(with_nomig, without)] = run_pairs(specs, workers=workers, store=store)
    return NoMigNecessity(with_nomig=with_nomig, without_nomig=without)


def render_section54(rows: List[StabilityRow]) -> str:
    lines = [
        "Section 5.4: stability of migratory detection",
        f"{'app':<10}{'NoMig/Mr':>10} (paper){'':<4}{'no-NoMig slowdown':>18}",
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<10}{row.nomig_fraction:>10.2%}"
            f" ({row.paper_fraction:>5.2%})    {row.disable_slowdown:>17.1%}"
        )
    return "\n".join(lines)
