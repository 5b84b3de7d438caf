"""First-class profiling harness for simulator runs.

``repro-sim profile <workload>`` executes one full simulation under
:mod:`cProfile`, prints a top-N hotspot table, and (optionally) writes a
JSON artifact so successive optimization sessions can diff where the
pclocks^H^H^H wall seconds go.  The simulation *result* is unaffected:
profiling wraps the run, it does not alter scheduling or timing, so
counters and execution times match an unprofiled run exactly.

Artifact schema (``repro-profile/1``)::

    {
      "schema": "repro-profile/1",
      "workload": "mp3d", "policy": "AD", "preset": "tiny",
      "consistency": "SC", "seed": 42, "check_coherence": true,
      "machine": {"nodes": 16, "mesh": "4x4", "cache_size": 65536, ...},
      "wall_time_s": 1.23,
      "events_processed": 36250,
      "events_per_sec": 29471,
      "execution_time": 11265,
      "subsystems": [
        {"subsystem": "engine", "tottime_s": 0.4, "ncalls": 120000,
         "share": 0.33}, ...
      ],
      "hotspots": [
        {"function": "...", "file": "...", "line": 123,
         "ncalls": 1000, "tottime_s": 0.5, "cumtime_s": 0.7}, ...
      ]
    }

The ``subsystems`` table attributes *self* time per simulator layer
(engine / transport / cache / directory / network / ...), so the shares
sum to roughly the wall time.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
from pathlib import Path
from typing import List, Optional, Union

from repro.consistency.models import ConsistencyModel, SEQUENTIAL_CONSISTENCY
from repro.core.policy import ProtocolPolicy
from repro.experiments.runner import run_workload
from repro.machine.config import MachineConfig

PROFILE_SCHEMA = "repro-profile/1"

#: pstats sort keys accepted by the CLI (name -> pstats key).
SORT_KEYS = {
    "tottime": pstats.SortKey.TIME,
    "cumtime": pstats.SortKey.CUMULATIVE,
    "calls": pstats.SortKey.CALLS,
}

#: Source-path fragments -> subsystem label, first match wins.  Used to
#: attribute cumulative self-time per simulator subsystem so a profile
#: answers "where does the run spend its time?" without reading 25
#: hotspot rows.  Paths are matched with '/'-normalized separators.
SUBSYSTEM_MAP = (
    ("repro/sim/", "engine"),
    ("repro/coherence/transport", "transport"),
    ("repro/coherence/messages", "transport"),
    ("repro/faults/plan", "transport"),
    ("repro/coherence/cache_ctrl", "cache"),
    ("repro/memory/cache", "cache"),
    ("repro/coherence/directory", "directory"),
    ("repro/coherence/states", "directory"),
    ("repro/core/detection", "directory"),
    ("repro/network/", "network"),
    ("repro/memory/bus", "network"),
    ("repro/memory/dram", "memory"),
    ("repro/cpu/", "cpu"),
    ("repro/workloads/", "workload"),
    ("repro/coherence/checker", "checker"),
)


def _subsystem_of(file: str) -> str:
    """Subsystem label for one profiled source file ('other' = unmapped)."""
    normalized = file.replace("\\", "/")
    for fragment, label in SUBSYSTEM_MAP:
        if fragment in normalized:
            return label
    return "other"


def profile_run(
    workload: str,
    policy: ProtocolPolicy,
    *,
    preset: str = "tiny",
    consistency: ConsistencyModel = SEQUENTIAL_CONSISTENCY,
    check_coherence: bool = True,
    seed: int = 42,
    top: int = 25,
    sort: str = "tottime",
) -> dict:
    """Run ``workload`` under cProfile and return the artifact document."""
    if sort not in SORT_KEYS:
        raise ValueError(f"unknown sort key {sort!r}; choose from {sorted(SORT_KEYS)}")
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_workload(
        workload,
        policy,
        preset=preset,
        consistency=consistency,
        check_coherence=check_coherence,
        seed=seed,
    )
    profiler.disable()

    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats(SORT_KEYS[sort])
    wall = stats.total_tt

    hotspots: List[dict] = []
    # stats.fcn_list holds the sorted (file, line, name) keys; fall back to
    # the unsorted dict if a pstats implementation leaves it unset.
    ordered = stats.fcn_list or list(stats.stats)
    for func in ordered[:top]:
        file, line, name = func
        cc, nc, tottime, cumtime, _callers = stats.stats[func]
        hotspots.append(
            {
                "function": name,
                "file": file,
                "line": line,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )

    # Subsystem attribution: self-time (tottime) summed per subsystem so
    # the shares add to the wall time instead of double-counting callers.
    sub_time: dict = {}
    sub_calls: dict = {}
    for (file, _line, _name), (_cc, nc, tottime, _cum, _callers) in stats.stats.items():
        label = _subsystem_of(file)
        sub_time[label] = sub_time.get(label, 0.0) + tottime
        sub_calls[label] = sub_calls.get(label, 0) + nc
    subsystems = [
        {
            "subsystem": label,
            "tottime_s": round(sub_time[label], 6),
            "ncalls": sub_calls[label],
            "share": round(sub_time[label] / wall, 4) if wall > 0 else 0.0,
        }
        for label in sorted(sub_time, key=lambda k: -sub_time[k])
    ]

    events = result.events_processed
    # Record everything needed to reproduce the run: a profile artifact
    # read months later must answer "what exactly was measured?" itself.
    machine = MachineConfig.dash_default()
    return {
        "schema": PROFILE_SCHEMA,
        "workload": workload,
        "policy": result.policy_name,
        "consistency": result.consistency_name,
        "preset": preset,
        "seed": seed,
        "check_coherence": check_coherence,
        "machine": {
            "nodes": machine.num_nodes,
            "mesh": f"{machine.mesh_width}x{machine.mesh_height}",
            "cache_size": machine.cache_size,
            "line_size": machine.line_size,
            "associativity": machine.associativity,
            "memory_cycle": machine.memory_cycle,
            "directory_cycle": machine.directory_cycle,
        },
        "sort": sort,
        "wall_time_s": round(wall, 4),
        "events_processed": events,
        "events_per_sec": int(events / wall) if wall > 0 else None,
        "execution_time": result.execution_time,
        "subsystems": subsystems,
        "hotspots": hotspots,
    }


def render_profile_doc(doc: dict) -> str:
    """Human-readable hotspot table for one profile artifact."""
    lines = [
        f"profile: {doc['workload']} / {doc['policy']} "
        f"(preset {doc['preset']}, sort {doc['sort']})",
        f"wall {doc['wall_time_s']} s — {doc['events_processed']:,} events"
        + (
            f" ({doc['events_per_sec']:,} events/s)"
            if doc["events_per_sec"]
            else ""
        )
        + f" — execution time {doc['execution_time']:,} pclocks",
    ]
    subsystems = doc.get("subsystems")
    if subsystems:
        lines.append("")
        lines.append(f"{'subsystem':<11} {'tottime':>9}  {'share':>6}  {'ncalls':>12}")
        for row in subsystems:
            lines.append(
                f"{row['subsystem']:<11} {row['tottime_s']:>9.4f}  "
                f"{row['share']:>6.1%}  {row['ncalls']:>12,}"
            )
    lines.append("")
    lines.append(f"{'ncalls':>10}  {'tottime':>9}  {'cumtime':>9}  function")
    for spot in doc["hotspots"]:
        where = Path(spot["file"]).name if spot["file"] else "~"
        lines.append(
            f"{spot['ncalls']:>10,}  {spot['tottime_s']:>9.4f}  "
            f"{spot['cumtime_s']:>9.4f}  {spot['function']} "
            f"({where}:{spot['line']})"
        )
    return "\n".join(lines)


def write_profile(doc: dict, path: Union[str, Path]) -> Path:
    """Write the artifact JSON to ``path``."""
    target = Path(path)
    target.write_text(json.dumps(doc, indent=2) + "\n")
    return target
