"""Chaos sweeps: does the protocol survive a hostile machine?

A chaos run executes each workload under every protocol in the family
(W-I, AD, MESI, Dragon, and the competitive hybrid by default)
across a ladder of fault intensities (see
:class:`~repro.faults.plan.FaultConfig`), with the progress watchdog
armed.  Every cell must finish with the coherence checker clean — faults
perturb timing, never correctness — so a cell that deadlocks, livelocks,
or trips the checker is a protocol bug surfaced by an adversarial but
legal schedule.

The report is a survival matrix (one cell per workload × policy ×
intensity) plus per-cell latency/traffic deltas against the
intensity-0 baseline of the same (workload, policy), and the fault
counters that prove the plan actually fired.  Failures carry the
:class:`~repro.faults.diagnostics.DiagnosticDump` captured by the
parallel runner's :class:`~repro.experiments.parallel.RunError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, run_many
from repro.faults import plan as fault_plan
from repro.faults.plan import FaultConfig
from repro.machine.config import MachineConfig
from repro.protocols import default_policies
from repro.stats.report import format_table

#: Default sweep coordinates: one migratory-heavy application model and
#: one synthetic migratory stressor.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("mp3d", "migratory-counters")
DEFAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)
#: Watchdog window in pclocks; generous vs the tiny-preset runtimes so
#: only a genuine livelock trips it.
DEFAULT_WATCHDOG: int = 200_000


@dataclass
class ChaosCell:
    """One (workload, policy, intensity) run of the sweep."""

    workload: str
    policy: str
    intensity: float
    ok: bool
    execution_time: int = 0
    network_bits: int = 0
    fault_delays: int = 0
    fault_reorders: int = 0
    fault_forced_naks: int = 0
    error: str = ""
    #: JSON form of the failure's DiagnosticDump (when one was attached).
    dump: Optional[Dict[str, Any]] = None
    #: Ratios vs the intensity-0 baseline cell (None when baseline failed
    #: or this cell did).
    latency_ratio: Optional[float] = None
    traffic_ratio: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "intensity": self.intensity,
            "ok": self.ok,
            "execution_time": self.execution_time,
            "network_bits": self.network_bits,
            "fault_delays": self.fault_delays,
            "fault_reorders": self.fault_reorders,
            "fault_forced_naks": self.fault_forced_naks,
            "error": self.error,
            "dump": self.dump,
            "latency_ratio": self.latency_ratio,
            "traffic_ratio": self.traffic_ratio,
        }


@dataclass
class ChaosReport:
    """The full sweep: parameters, cells, and the survival verdict."""

    workloads: List[str]
    intensities: List[float]
    preset: str
    seed: int
    watchdog: int
    #: Policy names in sweep order.
    policies: List[str]
    cells: List[ChaosCell] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[ChaosCell]:
        return [cell for cell in self.cells if not cell.ok]

    def cell(self, workload: str, policy: str, intensity: float) -> ChaosCell:
        for c in self.cells:
            if (c.workload, c.policy, c.intensity) == (workload, policy, intensity):
                return c
        raise KeyError((workload, policy, intensity))

    def to_json(self) -> Dict[str, Any]:
        return {
            "workloads": self.workloads,
            "intensities": self.intensities,
            "preset": self.preset,
            "seed": self.seed,
            "watchdog": self.watchdog,
            "policies": self.policies,
            "all_ok": self.all_ok,
            "cells": [cell.to_json() for cell in self.cells],
        }

    def render(self) -> str:
        headers = ["workload", "policy"] + [f"i={i:g}" for i in self.intensities]
        rows = []
        for workload in self.workloads:
            for policy in self.policies:
                row: List[Any] = [workload, policy]
                for intensity in self.intensities:
                    c = self.cell(workload, policy, intensity)
                    if not c.ok:
                        row.append(f"FAIL({c.error.split(':', 1)[0]})")
                    elif c.latency_ratio is None:
                        row.append("ok")
                    else:
                        row.append(f"ok {c.latency_ratio:+.0%}")
                rows.append(tuple(row))
        lines = [
            f"chaos sweep: preset={self.preset} seed={self.seed} "
            f"watchdog={self.watchdog} pclocks",
            "survival matrix (cell = outcome, latency delta vs intensity 0):",
            format_table(tuple(headers), rows),
        ]
        perturbed = [c for c in self.cells if c.ok and c.intensity > 0]
        if perturbed:
            lines.append("")
            lines.append("fault activity (surviving perturbed cells):")
            lines.append(
                format_table(
                    ("workload", "policy", "intensity", "delays", "reorders",
                     "forced naks", "traffic delta"),
                    [
                        (
                            c.workload, c.policy, f"{c.intensity:g}",
                            c.fault_delays, c.fault_reorders, c.fault_forced_naks,
                            "n/a" if c.traffic_ratio is None
                            else f"{c.traffic_ratio:+.1%}",
                        )
                        for c in perturbed
                    ],
                )
            )
        for c in self.failures:
            lines.append("")
            lines.append(
                f"FAILED: {c.workload}/{c.policy} intensity={c.intensity:g}: "
                f"{c.error}"
            )
            if c.dump is not None:
                from repro.faults.diagnostics import DiagnosticDump

                lines.append(DiagnosticDump.from_json(c.dump).render())
        verdict = (
            "all cells survived with the coherence checker clean"
            if self.all_ok
            else f"{len(self.failures)}/{len(self.cells)} cells FAILED"
        )
        lines.append("")
        lines.append(verdict)
        return "\n".join(lines)


def chaos_specs(
    workloads: Sequence[str],
    intensities: Sequence[float],
    *,
    preset: str = "tiny",
    seed: int = 42,
    watchdog: int = DEFAULT_WATCHDOG,
    check_coherence: bool = True,
    policies: Optional[Sequence[ProtocolPolicy]] = None,
) -> List[RunSpec]:
    """The spec grid, ordered workload-major then policy then intensity."""
    specs: List[RunSpec] = []
    for workload in workloads:
        for policy in (policies or default_policies()):
            for intensity in intensities:
                faults = (
                    FaultConfig(seed=seed, intensity=intensity)
                    if intensity > 0
                    else None
                )
                config = MachineConfig.dash_default(
                    faults=faults, watchdog_window=watchdog
                )
                specs.append(
                    RunSpec.make(
                        workload,
                        policy,
                        preset=preset,
                        config=config,
                        check_coherence=check_coherence,
                        seed=seed,
                        tag=f"{workload}/{policy.name}@i={intensity:g}",
                    )
                )
    return specs


def run_chaos(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    *,
    preset: str = "tiny",
    seed: int = 42,
    watchdog: int = DEFAULT_WATCHDOG,
    workers: int = 1,
    check_coherence: bool = True,
    store=None,
    policies: Optional[Sequence[ProtocolPolicy]] = None,
) -> ChaosReport:
    """Run the full chaos grid and assemble the survival report."""
    workloads = list(workloads)
    intensities = sorted(set(intensities))
    chosen = tuple(policies or default_policies())
    specs = chaos_specs(
        workloads,
        intensities,
        preset=preset,
        seed=seed,
        watchdog=watchdog,
        check_coherence=check_coherence,
        policies=chosen,
    )
    outcomes = run_many(specs, workers=workers, store=store)
    report = ChaosReport(
        workloads=workloads,
        intensities=intensities,
        preset=preset,
        seed=seed,
        watchdog=watchdog,
        policies=[policy.name for policy in chosen],
    )
    index = 0
    for workload in workloads:
        for policy in chosen:
            baseline: Optional[ChaosCell] = None
            for intensity in intensities:
                outcome = outcomes[index]
                index += 1
                if outcome.ok:
                    result = outcome.result
                    cell = ChaosCell(
                        workload=workload,
                        policy=policy.name,
                        intensity=intensity,
                        ok=True,
                        execution_time=result.execution_time,
                        network_bits=result.network_bits,
                        fault_delays=result.counter(fault_plan.DELAYS),
                        fault_reorders=result.counter(fault_plan.REORDERS),
                        fault_forced_naks=result.counter(fault_plan.FORCED_NAKS),
                    )
                else:
                    cell = ChaosCell(
                        workload=workload,
                        policy=policy.name,
                        intensity=intensity,
                        ok=False,
                        error=str(outcome.error).split("\n", 1)[0],
                        dump=outcome.error.dump,
                    )
                if intensity == intensities[0] and intensity == 0.0:
                    baseline = cell if cell.ok else None
                elif cell.ok and baseline is not None:
                    if baseline.execution_time > 0:
                        cell.latency_ratio = (
                            cell.execution_time / baseline.execution_time - 1.0
                        )
                    if baseline.network_bits > 0:
                        cell.traffic_ratio = (
                            cell.network_bits / baseline.network_bits - 1.0
                        )
                report.cells.append(cell)
    return report
