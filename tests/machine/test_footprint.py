"""Per-block memory footprint of a simulated machine, under tracemalloc.

A machine's fixed cost (cache arrays, meshes, tables) is allocated once;
what grows with the footprint is the bookkeeping kept per touched block.
Running random-mix at two sizes and dividing the difference in traced
peak by the difference in directory rows cancels the fixed cost and
leaves the marginal bytes per touched block.  Directory rows are found
by page, with no dict entry or boxed int per block; most rows point at
an interned sharer set that every directory shares (none, a first
reader, or a pair); the row columns hold 1 to 4 bytes each; and the
miss marks are one byte per block per node.  So the margin is ~85.5 B/row
on CPython 3.11-3.13 (~84 on 3.9).  The limit sits below the ~230 B/row
(~221) measured the same way when each row had a ``block -> row`` dict
entry, a second reader gave the row its own set, and a disabled checker
kept a version per block.

Every measurement runs in a fresh interpreter, so nothing an earlier
test left in the process allocates inside the traced window.  The first
traced runs of a process also make what the process keeps once
(interned sharer pairs among it), so the margin is read from a second
small/large pair after a throwaway one, and the sampler is compared
with a second plain run.  The module imports no pytest, so CI runs
:func:`marginal_bytes_per_row` on interpreters it has no pytest for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

#: Marginal traced bytes per touched directory row (see module docstring).
BYTES_PER_ROW_LIMIT = 90

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Prints ``[[traced peak bytes, directory rows], ...]``, one pair per
#: random-mix W-I run given as JSON ``[[num_blocks, ops, config], ...]``.
_PROBE = """
import json, sys, tracemalloc
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.protocols import policy_for
from repro.workloads import make_workload

def traced_run(num_blocks, ops, config):
    cfg = MachineConfig.dash_default(
        policy=policy_for("W-I"), check_coherence=False, **config
    )
    tracemalloc.start()
    machine = Machine(cfg)
    workload = make_workload("random-mix", cfg.num_nodes, "default", seed=42,
                             num_blocks=num_blocks, ops=ops)
    machine.run(workload.programs())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak, sum(len(d.entries) for d in machine.directories)

# One small untraced run first, so one-time allocations (such as
# importing the sampler's module) are not traced.
Machine(MachineConfig.dash_default(check_coherence=False, metrics_interval=1000)).run(
    make_workload("random-mix", 16, "default", seed=1, num_blocks=64, ops=20).programs()
)
print(json.dumps([traced_run(*run) for run in json.loads(sys.argv[1])]))
"""


def _traced_runs(*runs):
    """(traced peak bytes, directory rows) of each ``(num_blocks, ops,
    config)`` run, taken one after another in one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def marginal_bytes_per_row():
    """(traced bytes per touched directory row, small rows, large rows),
    from the second of two identical small/large pairs."""
    pair = ((1024, 100, {}), (4096, 400, {}))
    _, _, (small_peak, small_rows), (large_peak, large_rows) = _traced_runs(
        *pair, *pair
    )
    per_row = (large_peak - small_peak) / (large_rows - small_rows)
    return per_row, small_rows, large_rows


def test_marginal_bytes_per_directory_row():
    per_row, small_rows, large_rows = marginal_bytes_per_row()
    assert large_rows > small_rows + 2000
    assert per_row < BYTES_PER_ROW_LIMIT, (
        f"{per_row:.0f} traced bytes per touched block "
        f"({small_rows} -> {large_rows} rows)"
    )


def test_metrics_sampler_adds_no_per_block_state():
    # The sampler reads queue depths each tick; it must not materialize a
    # view or a pending queue per directory row (that cost +49% here).
    _first, (plain_peak, rows), (sampled_peak, sampled_rows) = _traced_runs(
        (4096, 200, {}), (4096, 200, {}), (4096, 200, {"metrics_interval": 1000})
    )
    assert sampled_rows == rows
    assert sampled_peak <= 1.05 * plain_peak, (plain_peak, sampled_peak)
