"""Result-identity gate behind ``repro-sim bench``.

Runs a fixed suite (the Figure-5 sweep: every paper benchmark under both
W-I and AD) serially and writes a ``BENCH_<date>.json`` snapshot of each
run's simulation results.  :func:`compare_bench_results` gates a
snapshot against a committed one: the simulator is deterministic, so any
difference in execution times, event counts, traffic or protocol
counters is a change to what the code simulates.  Performance is
measured by the ``bench/`` harness, not here.

Schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "created": "<UTC ISO timestamp>",
      "suite": "figure5", "preset": "default",
      "code_version": "src-<digest>",  # same digest the result store keys on
      "total_events": ...,
      "runs": [                  # one entry per (workload, policy)
        {"label": "mp3d/W-I", "workload": "mp3d", "policy": "W-I",
         "events_processed": ..., "execution_time": ..., "network_bits": ...,
         "counters": {...}}
      ]
    }

Older snapshots also carry timing fields (wall times, events/s, a
parallel pass); they still load, and the gate ignores them.
"""

from __future__ import annotations

import json
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.policy import ProtocolPolicy
from repro.experiments.store import code_version
from repro.experiments.parallel import RunOutcome, RunSpec, run_many
from repro.workloads import PAPER_BENCHMARKS

BENCH_SCHEMA = "repro-bench/1"


def figure5_suite(preset: str = "default") -> List[RunSpec]:
    """The fixed bench suite: the Figure-5 sweep, coherence checks off.

    (The checker is a correctness instrument, not part of the simulated
    machine; the committed baselines ran without it.)
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
    return {
        "label": outcome.spec.label,
        "workload": outcome.spec.workload,
        "policy": result.policy_name,
        "events_processed": result.events_processed,
        "execution_time": result.execution_time,
        "network_bits": result.network_bits,
        "counters": result.counters.as_dict(),
    }


def run_bench_suite(preset: str = "default") -> dict:
    """Run the bench suite serially and return the snapshot.

    The bench never consults the result cache: a cache hit would replay
    a stored result instead of simulating it with this code.
    """
    outcomes = run_many(figure5_suite(preset))
    runs = [_run_record(outcome) for outcome in outcomes]
    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "suite": "figure5",
        "preset": preset,
        # Which simulator produced these results: the same code digest
        # the result store keys on.
        "code_version": code_version(),
        "total_events": sum(run["events_processed"] for run in runs),
        "runs": runs,
    }


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
    lines = [
        f"bench suite {doc['suite']!r} (preset {doc['preset']}) — "
        f"{doc['created']}",
        f"{'run':<16}{'events':>10}{'exec time':>11}{'net bits':>12}",
    ]
    for run in doc["runs"]:
        lines.append(
            f"{run['label']:<16}{run['events_processed']:>10,}"
            f"{run['execution_time']:>11,}{run['network_bits']:>12,}"
        )
    return "\n".join(lines)


def compare_bench_results(old: dict, new: dict) -> List[str]:
    """Result gate between two snapshots: empty list = identical.

    Simulation outputs (execution times, event counts, traffic, protocol
    counters) are deterministic and must not change; timing fields in
    older snapshots are ignored.  Returns one human-readable line per
    divergence, including one per baseline run the new snapshot lacks.
    Labels only the new snapshot has are skipped (suites may grow).
    """
    if old["preset"] != new["preset"]:
        return [
            f"preset mismatch: baseline ran {old['preset']!r}, current ran "
            f"{new['preset']!r} — no comparable results"
        ]
    new_runs: Dict[str, dict] = {run["label"]: run for run in new["runs"]}
    problems: List[str] = []
    for before in old["runs"]:
        label = before["label"]
        run = new_runs.get(label)
        if run is None:
            problems.append(f"{label}: missing from the new snapshot")
            continue
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
