"""Entry point of one benchmark round in a fresh process.

    python3 bench/child.py < job.json

Reads a JSON job on stdin, imports the simulator, opens the round's
``ResultStore`` and prints ``ready``; the parent times spawn-to-ready as
set-up.  It then runs the round (``rounds.py``) and prints one JSON
report line.  ``mode: setup`` stops after ``ready``: an extra set-up
sample.
"""

from __future__ import annotations

import json
import resource
import sys


def main() -> int:
    job = json.loads(sys.stdin.read())
    import rounds
    from repro.experiments.store import ResultStore

    store = ResultStore(job["store"])
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0
    plain = rounds.Round(job, store)
    plain.run()
    if job["mode"] == "sweep":
        plain.cross_check()
    report = {
        "cells": plain.cells,
        "cold_jobs": plain.cold_jobs,
        "warm_jobs": plain.warm_jobs,
        "events": plain.events,
        "cell_s": sum(plain.cell_walls),
        "cold_cells": len(plain.cell_walls),
        "warm_cells": plain.warm_cells,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": rounds.traced_round(job, plain) if job["trace"] else {},
        "failed": plain.failed,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
