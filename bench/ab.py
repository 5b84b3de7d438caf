"""Paired A/B of this tree against another revision, on the same bench code.

    python3 bench/ab.py REV [--workload W] [--pairs 10]

Exports REV's tree with ``git archive`` into ``.bench_work/ab-<rev>/``
and runs this tree's ``bench/run.py`` against both source trees
(``--src``), alternating which side runs first; pair ``i`` uses seed
``42 + i`` on both sides.  For every end-to-end metric, gated or not, and
every workload it prints each side's median and quartiles, the fraction
of pairs the change won, and a verdict:

* improved   - at least 10 pairs, the change won at least 9/10 of them,
               and the medians differ by more than the parent's quartile
               spread;
* unresolved - the parent's own quartile spread is wider than the bound,
               unless every change run beat, or every one lost to, every
               parent run; or fewer than two pairs produced the metric;
* worse      - the change's median is worse than the parent's by more
               than the metric's bound;
* unchanged  - otherwise.

A metric's bound is its bound in BENCHMARK.json; a metric that file does
not gate takes the 10% bound the benchmark was designed with.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from run import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNGATED_BOUND = 0.10


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    if len(base) < 2:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    mid_base, mid_change = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    pairs = len(base)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    gain = sign * (mid_change - mid_base) / mid_base
    if pairs >= 10 and wins >= 0.9 * pairs and abs(mid_change - mid_base) > q3 - q1:
        return "improved"
    separated = (all(sign * (c - b) > 0 for c in change for b in base)
                 or all(sign * (c - b) < 0 for c in change for b in base))
    if (q3 - q1) / mid_base > bound and not separated:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "unchanged"


def export(rev: str) -> Path:
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    target = ROOT / ".bench_work" / f"ab-{sha}"
    if not (target / "src").is_dir():
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        target.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target)
    return target


def run_once(workload: str, seed: int, src: Path) -> Optional[Dict[str, float]]:
    """One run's end-to-end metrics, or None when the run failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--src", str(src)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"  {src} seed {seed}: exit {proc.returncode}: "
              f"{proc.stderr.strip()[-500:]}")
        return None
    metrics = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] == workload and fields[1] in END_TO_END:
            metrics[fields[1]] = float(fields[2])
    return metrics


def main(argv=None) -> int:
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in catalog["workloads"]]
    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    sides = {"parent": export(args.rev) / "src", "change": ROOT / "src"}
    for workload in args.workload or names:
        pairs: List[Dict[str, Optional[Dict[str, float]]]] = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            pairs.append({side: run_once(workload, 42 + pair, sides[side])
                          for side in order})
        failures = {side: sum(1 for p in pairs if p[side] is None) for side in sides}
        print(f"\n{workload}: {args.pairs} pairs vs {args.rev}; failed runs "
              f"parent {failures['parent']}, change {failures['change']}")
        print(f"{'metric':<26}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}"
              f"{'wins':>7}  verdict")
        for key, (_unit, better) in END_TO_END.items():
            both = [p for p in pairs if p["parent"] and p["change"]]
            values = {side: [p[side][key] for p in both] for side in sides}
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(1 for b, c in zip(values["parent"], values["change"])
                       if sign * (c - b) > 0)
            cells = []
            for side in ("parent", "change"):
                if len(values[side]) >= 2:
                    q1, mid, q3 = statistics.quantiles(values[side], n=4)
                    cells.append(f"{q1:.4g}/{mid:.4g}/{q3:.4g}")
                else:
                    cells.append("-")
            label = key if key in bounds else f"{key}*"
            print(f"{label:<26}{cells[0]:>34}{cells[1]:>34}"
                  f"{wins / max(1, len(both)):>7.0%}  "
                  f"{verdict(values['parent'], values['change'], better, bounds.get(key, UNGATED_BOUND))}")
        print("* not gated by BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
