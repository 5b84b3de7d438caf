"""Perf-regression bench harness behind ``repro-sim bench``.

Runs a fixed suite (the Figure-5 sweep: every paper benchmark under both
W-I and AD) twice — once serially, once through the process pool — and
writes a ``BENCH_<date>.json`` snapshot with per-run wall times,
simulator event throughput, protocol counters, and the measured
serial-vs-parallel speedup.  Future changes compare their snapshot
against a committed one with :func:`diff_bench` to catch simulator
performance regressions.

Schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "created": "<UTC ISO timestamp>",
      "suite": "figure5", "preset": "default", "workers": 4,
      "host": {"python": ..., "platform": ..., "cpu_count": ...},
      "code_version": "src-<digest>",  # same digest the result store keys on
      "serial_wall_time_s": ..., "parallel_wall_time_s": ...,
      "speedup": ...,            # serial / parallel wall time
      "parallel_matches_serial": true,
      "total_events": ..., "events_per_sec_serial": ...,
      "runs": [                  # one entry per (workload, policy), serial pass
        {"label": "mp3d/W-I", "workload": "mp3d", "policy": "W-I",
         "wall_time_s": ..., "events_processed": ..., "events_per_sec": ...,
         "execution_time": ..., "network_bits": ..., "counters": {...}}
      ]
    }
"""

from __future__ import annotations

import json
import os
import platform
from datetime import date, datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Union

from repro.core.policy import ProtocolPolicy
from repro.experiments.store import code_version
from repro.experiments.parallel import (
    RunOutcome,
    RunSpec,
    default_workers,
    result_fingerprint,
    run_many,
)
from repro.workloads import PAPER_BENCHMARKS

BENCH_SCHEMA = "repro-bench/1"


def figure5_suite(preset: str = "default") -> List[RunSpec]:
    """The fixed bench suite: the Figure-5 sweep, coherence checks off.

    (The checker is a correctness instrument, not part of the simulated
    machine; benchmarks measure the simulator.)
    """
    return [
        RunSpec.make(
            name, policy,
            preset=preset, check_coherence=False,
            tag=f"{name}/{policy.name}",
        )
        for name in PAPER_BENCHMARKS
        for policy in (
            ProtocolPolicy.write_invalidate(),
            ProtocolPolicy.adaptive_default(),
        )
    ]


def _run_record(outcome: RunOutcome) -> dict:
    result = outcome.unwrap()
    wall = outcome.wall_time
    return {
        "label": outcome.spec.label,
        "workload": outcome.spec.workload,
        "policy": result.policy_name,
        "wall_time_s": round(wall, 4),
        "events_processed": result.events_processed,
        "events_per_sec": round(result.events_processed / wall) if wall > 0 else None,
        "execution_time": result.execution_time,
        "network_bits": result.network_bits,
        "counters": result.counters.as_dict(),
    }


def run_bench_suite(
    preset: str = "default",
    workers: Optional[int] = None,
    specs: Optional[List[RunSpec]] = None,
) -> dict:
    """Run the bench suite serially (and in parallel); return the snapshot.

    ``workers=None`` uses every core.  On a single-core host that
    resolves to 1, and the parallel pass is *skipped*: a process pool on
    one CPU can only time-slice, so a "speedup" measured there is noise
    at best and a recorded slowdown at worst.  The snapshot then carries
    ``parallel_wall_time_s: null`` / ``speedup: null`` plus a
    ``parallel_skipped`` note — an honest serial-only record.  Passing an
    explicit ``workers >= 2`` always measures the parallel pass (that is
    what CI does on its multi-core runners).

    The bench never consults the result cache: it measures the
    simulator, and a cache hit would time the store instead.
    """
    suite = specs if specs is not None else figure5_suite(preset)
    resolved = max(1, workers if workers is not None else default_workers())

    start = perf_counter()
    serial = run_many(suite, workers=1)
    serial_wall = perf_counter() - start

    if resolved >= 2:
        start = perf_counter()
        parallel = run_many(suite, workers=resolved)
        parallel_wall = perf_counter() - start
        matches = all(
            a.ok and b.ok
            and result_fingerprint(a.unwrap()) == result_fingerprint(b.unwrap())
            for a, b in zip(serial, parallel)
        )
        parallel_fields = {
            "parallel_wall_time_s": round(parallel_wall, 4),
            "speedup": (
                round(serial_wall / parallel_wall, 3) if parallel_wall > 0 else None
            ),
            "parallel_matches_serial": matches,
        }
    else:
        parallel_fields = {
            "parallel_wall_time_s": None,
            "speedup": None,
            "parallel_matches_serial": None,
            "parallel_skipped": "single worker resolved (1-CPU host?); "
                                "serial-only snapshot",
        }

    total_events = sum(o.unwrap().events_processed for o in serial if o.ok)
    doc = {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "suite": "figure5",
        "preset": preset,
        "workers": resolved,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        # Which simulator produced these numbers: the same code digest
        # the result store keys on — a perf delta against a snapshot from
        # a different code version is expected, not a regression.
        "code_version": code_version(),
        "serial_wall_time_s": round(serial_wall, 4),
        "total_events": total_events,
        "events_per_sec_serial": (
            round(total_events / serial_wall) if serial_wall > 0 else None
        ),
        "runs": [_run_record(outcome) for outcome in serial],
    }
    doc.update(parallel_fields)
    return doc


def write_bench(doc: dict, path: Optional[Union[str, Path]] = None) -> Path:
    """Write the snapshot to ``path`` (default ``BENCH_<date>.json``)."""
    target = Path(path) if path else Path(f"BENCH_{date.today().isoformat()}.json")
    target.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return target


def load_bench(path: Union[str, Path]) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {doc.get('schema')!r} "
            f"(expected {BENCH_SCHEMA})"
        )
    return doc


def render_bench(doc: dict) -> str:
    """Human-readable summary of one snapshot."""
    if doc.get("parallel_wall_time_s") is not None:
        parallel_line = (
            f"parallel {doc['parallel_wall_time_s']:8.2f} s   "
            f"({doc['workers']} workers, speedup {doc['speedup']}x, results "
            f"{'identical' if doc['parallel_matches_serial'] else 'DIVERGED'})"
        )
    else:
        parallel_line = (
            f"parallel     skipped ({doc.get('parallel_skipped', 'n/a')})"
        )
    lines = [
        f"bench suite {doc['suite']!r} (preset {doc['preset']}) — "
        f"{doc['created']}",
        f"serial   {doc['serial_wall_time_s']:8.2f} s   "
        f"{doc['events_per_sec_serial'] or 0:>9,} events/s",
        parallel_line,
        f"{'run':<16}{'wall s':>8}{'events':>10}{'ev/s':>10}{'exec time':>11}",
    ]
    for run in doc["runs"]:
        lines.append(
            f"{run['label']:<16}{run['wall_time_s']:>8.2f}"
            f"{run['events_processed']:>10,}{run['events_per_sec'] or 0:>10,}"
            f"{run['execution_time']:>11,}"
        )
    return "\n".join(lines)


def compare_bench_results(old: dict, new: dict) -> List[str]:
    """Semantic result gate between two snapshots: empty list = identical.

    Wall times and events/sec are *measurements* and may drift with the
    host; simulation outputs (execution times, event counts, traffic,
    protocol counters) are deterministic and must not.  Returns one
    human-readable line per divergence.  Labels present in only one
    snapshot are skipped (suites may grow).
    """
    if old["preset"] != new["preset"]:
        return [
            f"preset mismatch: baseline ran {old['preset']!r}, current ran "
            f"{new['preset']!r} — no comparable results"
        ]
    problems: List[str] = []
    old_runs: Dict[str, dict] = {run["label"]: run for run in old["runs"]}
    for run in new["runs"]:
        before = old_runs.get(run["label"])
        if before is None:
            continue
        label = run["label"]
        for key in ("execution_time", "events_processed", "network_bits"):
            if before.get(key) != run.get(key):
                problems.append(
                    f"{label}: {key} changed {before.get(key)!r} -> {run.get(key)!r}"
                )
        old_counters = before.get("counters", {})
        new_counters = run.get("counters", {})
        for name in sorted(set(old_counters) | set(new_counters)):
            if old_counters.get(name) != new_counters.get(name):
                problems.append(
                    f"{label}: counter {name!r} changed "
                    f"{old_counters.get(name)!r} -> {new_counters.get(name)!r}"
                )
    return problems


def host_warnings(old: dict, new: dict) -> List[str]:
    """Human-readable warnings when two snapshots came from different hosts.

    Simulation *results* are host-independent and stay gate-worthy across
    machines, but wall-time comparisons between different CPUs, platforms,
    or Python versions are apples-to-oranges — the CLI prints these
    warnings next to the timing diff so nobody chases a "regression" that
    is actually a hardware change.  Returns one line per mismatched field;
    empty list = comparable hosts.
    """
    warnings: List[str] = []
    old_host = old.get("host") or {}
    new_host = new.get("host") or {}
    for field, label in (
        ("cpu_count", "CPU count"),
        ("platform", "platform"),
        ("python", "Python"),
    ):
        old_value, new_value = old_host.get(field), new_host.get(field)
        if old_value != new_value:
            warnings.append(
                f"{label} {old_value!r} -> {new_value!r}; "
                f"timing deltas are informational only"
            )
    return warnings


def timing_regressions(old: dict, new: dict, tolerance: float) -> List[str]:
    """Wall-time drift gate: runs slower by more than ``tolerance``.

    ``tolerance`` is a relative threshold (0.25 = fail when a run got more
    than 25% slower than the baseline).  Unlike
    :func:`compare_bench_results` — which is a hard gate on deterministic
    simulation outputs — timing is a host-dependent measurement, so this
    gate is opt-in (``repro-sim bench --tolerance``) and compares both the
    per-run and the total serial wall time.  Returns one line per
    violation; empty list = within tolerance.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
    problems: List[str] = []
    old_runs: Dict[str, dict] = {run["label"]: run for run in old["runs"]}
    for run in new["runs"]:
        before = old_runs.get(run["label"])
        if before is None or before.get("wall_time_s", 0) <= 0:
            continue
        delta = (run["wall_time_s"] - before["wall_time_s"]) / before["wall_time_s"]
        if delta > tolerance:
            problems.append(
                f"{run['label']}: wall time {before['wall_time_s']:.2f} s -> "
                f"{run['wall_time_s']:.2f} s ({delta:+.1%} > {tolerance:.0%})"
            )
    old_total = old.get("serial_wall_time_s", 0)
    new_total = new.get("serial_wall_time_s", 0)
    if old_total > 0:
        delta = (new_total - old_total) / old_total
        if delta > tolerance:
            problems.append(
                f"total serial wall: {old_total:.2f} s -> {new_total:.2f} s "
                f"({delta:+.1%} > {tolerance:.0%})"
            )
    return problems


def diff_bench(old: dict, new: dict) -> str:
    """Compare two snapshots run-by-run (positive delta = slower now)."""
    old_runs: Dict[str, dict] = {run["label"]: run for run in old["runs"]}
    lines = [
        f"bench diff: {old['created']} -> {new['created']} "
        f"(preset {old['preset']} -> {new['preset']})",
        f"{'run':<16}{'old s':>8}{'new s':>8}{'wall Δ':>9}{'ev/s Δ':>9}",
    ]
    for run in new["runs"]:
        before = old_runs.get(run["label"])
        if before is None:
            lines.append(f"{run['label']:<16}{'—':>8}{run['wall_time_s']:>8.2f}  (new)")
            continue
        wall_delta = (
            (run["wall_time_s"] - before["wall_time_s"]) / before["wall_time_s"]
            if before["wall_time_s"] > 0 else 0.0
        )
        eps_delta = (
            (run["events_per_sec"] - before["events_per_sec"])
            / before["events_per_sec"]
            if before.get("events_per_sec") and run.get("events_per_sec") else 0.0
        )
        lines.append(
            f"{run['label']:<16}{before['wall_time_s']:>8.2f}"
            f"{run['wall_time_s']:>8.2f}{wall_delta:>+9.1%}{eps_delta:>+9.1%}"
        )
    old_total, new_total = old["serial_wall_time_s"], new["serial_wall_time_s"]
    if old_total > 0:
        lines.append(
            f"total serial wall: {old_total:.2f} s -> {new_total:.2f} s "
            f"({(new_total - old_total) / old_total:+.1%})"
        )
    return "\n".join(lines)
