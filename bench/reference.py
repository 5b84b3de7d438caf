"""Regenerate ``bench/reference/<workload>.json`` for the default seed.

    PYTHONPATH=src python3 bench/reference.py [WORKLOAD ...]

Runs every cell a benchmark run of ``run_seconds`` makes at seed 42
serially with ``run_workload`` and records the digest of each cell's
``result_fingerprint``.  Only a change that is meant to
alter simulated results should regenerate these files.
"""

from __future__ import annotations

import json
import sys

from rounds import simulate, spec_of
from repro.experiments.parallel import result_fingerprint
from summary import digest
from workloads import HERE, WORKLOADS, round_cells

SEED = 42


def main(argv) -> int:
    for name in argv or list(WORKLOADS):
        workload = WORKLOADS[name]
        cells = {}
        for index in range(workload.rounds):
            for cell in round_cells(workload, index, SEED):
                cells[cell["tag"]] = digest(result_fingerprint(simulate(spec_of(cell))))
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps({"seed": SEED, "cells": cells}, indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
