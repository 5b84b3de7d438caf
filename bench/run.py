"""Run one benchmark workload, check its outputs, print every metric.

    python3 bench/run.py --workload figure5-migratory [--seed 42]
        [--seconds 20] [--trace [0|1]] [--out trace.json] [--src src]
    python3 bench/run.py --smoke      # one tiny traced round per workload

Run from the repository root.  The simulator is imported from ``--src``
(default ``src``), never from an installed copy.  ``--seconds`` scales
the fixed number of rounds a workload runs in BENCHMARK.json's
``run_seconds``.  Every metric is printed by name and unit; the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the gated end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics).  A failed
cell, a workload that cannot run, or a fingerprint that differs from
``bench/reference/`` makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
CATALOG = HERE.parent / "BENCHMARK.json"
#: Every end-to-end metric a run measures: (unit, which way is better).
#: BENCHMARK.json gates those in its ``end_to_end`` list; the others are
#: printed, and compared by ``ab.py``, but not gated (see bench/README.md).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_events_per_s": ("1/s", "higher"),
    "job_latency_s_p50_cold": ("s", "lower"),
    "job_latency_s_p50_warm": ("s", "lower"),
}


def end_to_end(obs) -> Dict[str, float]:
    from summary import ratio

    def mid(values: List[float]) -> float:
        return median(values) if values else 0.0  # 0 only when every cell failed

    return {
        "setup_s": mid(obs.setups),
        "peak_rss_mb": mid(obs.rss_mb),
        "sim_events_per_s": ratio(obs.events, obs.cell_s),
        "job_latency_s_p50_cold": mid(obs.cold_jobs),
        "job_latency_s_p50_warm": mid(obs.warm_jobs),
    }


def tails(obs) -> Dict[str, Tuple[float, int]]:
    """Job-latency tails where the sample count supports one, with that count."""
    from summary import percentile, tail_percentile

    out = {}
    for phase, samples in (("cold", obs.cold_jobs), ("warm", obs.warm_jobs)):
        p = tail_percentile(len(samples))
        if p is not None and p > 50:
            out[f"job_latency_s_p{p:g}_{phase}"] = (percentile(samples, p), len(samples))
    return out


def check_reference(name: str, seed: int, cells: Dict[str, str]) -> List[str]:
    """Cells whose fingerprint digest differs from the committed reference."""
    from workloads import load_reference

    reference = load_reference(name)
    if reference.get("seed") != seed:
        return []
    expected = reference["cells"]
    return [f"{tag} (reference)" for tag, value in sorted(cells.items())
            if tag in expected and expected[tag] != value]


def run_workload(name: str, args, workdir: Path, trace: bool):
    from workloads import WORKLOADS, run_in_children, run_serve

    workload = WORKLOADS[name]
    drive = run_serve if workload.kind == "serve" else run_in_children
    # A traced or smoke run is the shortest one: a single round.
    rounds = workload.count(0.0 if trace else args.seconds / args.run_seconds)
    obs = drive(workload, args.seed, rounds, trace, args.smoke, args.src, workdir)
    if not args.smoke:
        obs.failed += check_reference(name, args.seed, obs.cells)
    return obs


def print_metric(name: str, metric: str, value: float, unit: str,
                 count: Optional[int] = None) -> None:
    """One human-readable metric line; ``ab.py`` parses these."""
    suffix = f"  (n={count})" if count else ""
    print(f"{name:<18} {metric:<34} {value!r:>22} {unit}{suffix}")


def main(argv=None) -> int:
    catalog = json.loads(CATALOG.read_text())
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=catalog["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None,
                        help="trace artifact path (default .bench_work/trace-<workload>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny traced round of every workload (or of --workload)")
    parser.add_argument("--src", type=Path, default=Path("src"))
    args = parser.parse_args(argv)
    if not (args.workload or args.smoke):
        parser.error("--workload is required unless --smoke is given")

    args.src = args.src.resolve()
    if not (args.src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {args.src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(args.src))
    import repro

    if Path(repro.__file__).resolve().parent != args.src / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from summary import results_digest

    args.run_seconds = catalog["run_seconds"]
    gated = [m["name"] for m in catalog["end_to_end"]]
    units = {m["name"]: m["unit"] for m in catalog["per_layer"]}
    units.update({key: unit for key, (unit, _better) in END_TO_END.items()})
    work_root = Path(".bench_work").resolve()
    selected = [args.workload] if args.workload else names
    trace = bool(args.trace) or args.smoke
    attempted = 0
    failed: List[str] = []
    metrics: Dict[str, float] = {}
    for name in selected:
        workdir = work_root / f"{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        out = args.out or work_root / f"trace-{name}.json"
        try:
            obs = run_workload(name, args, workdir, trace)
            if trace:
                shutil.move(str(workdir / "spans.json"), str(out))
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            traceback.print_exc()
            attempted += 1
            failed.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted += obs.cold_cells + obs.warm_cells
        failed += obs.failed
        first = [tag for tag in obs.cells if tag.split("/")[0] in ("r0", "j0", "j1", "j2")]
        print(f"{name}: results_digest {results_digest(obs.cells, first)} "
              f"(seed {args.seed}, {len(first)} first-round cells); "
              f"{obs.cold_cells} cold + {obs.warm_cells} warm cells, "
              f"{len(obs.failed)} failed")
        e2e = end_to_end(obs)
        counts = {"setup_s": len(obs.setups), "peak_rss_mb": len(obs.rss_mb),
                  "sim_events_per_s": obs.cold_cells,
                  "job_latency_s_p50_cold": len(obs.cold_jobs),
                  "job_latency_s_p50_warm": len(obs.warm_jobs)}
        for metric, value in e2e.items():
            note = "" if metric in gated else " (not gated)"
            print_metric(name, metric, value, units[metric] + note, counts[metric])
        for metric, (value, count) in tails(obs).items():
            print_metric(name, metric, value, "s (not gated)", count)
        chosen = {key: e2e[key] for key in gated} if args.trace == 0 or args.smoke else {}
        if trace:
            for metric, value in obs.layers.items():
                print_metric(name, metric, value, units[metric])
            print(f"{name}: trace artifact {out}")
            chosen.update(obs.layers)
        prefix = f"{name}/" if len(selected) > 1 else ""
        metrics.update({prefix + key: value for key, value in chosen.items()})
    for problem in failed:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key.rpartition("/")[2]]}
                    for key, value in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
