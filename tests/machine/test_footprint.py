"""Per-block memory footprint of a simulated machine, under tracemalloc.

A machine's fixed cost (cache arrays, meshes, tables) is allocated once;
what grows with the footprint is the bookkeeping kept per touched block.
Running random-mix at two sizes and dividing the difference in traced
peak by the difference in directory rows cancels the fixed cost and
leaves the marginal bytes per touched block.  Most rows point at an
interned sharer set that every directory shares (none, a first reader,
or the pair a Sw leaves), the row columns hold 1 to 4 bytes each, and
the miss marks are one byte per block per node, so the margin is
~205 B/row on CPython 3.11-3.13 (~194 on 3.9).  The limit sits below
the ~316 B/row (~305) measured when each row with sharers had its own
Python ``set`` and 8-byte columns.
"""

import tracemalloc

import pytest

from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.protocols import policy_for
from repro.workloads import make_workload

#: Marginal traced bytes per touched directory row (see module docstring).
BYTES_PER_ROW_LIMIT = 260


def _traced_run(num_blocks, ops, **config):
    """(traced peak bytes, directory rows) of one random-mix W-I run."""
    cfg = MachineConfig.dash_default(
        policy=policy_for("W-I"), check_coherence=False, **config
    )
    tracemalloc.start()
    try:
        machine = Machine(cfg)
        workload = make_workload(
            "random-mix", cfg.num_nodes, "default", seed=42,
            num_blocks=num_blocks, ops=ops,
        )
        machine.run(workload.programs())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(len(d.entries) for d in machine.directories)


@pytest.fixture(scope="module")
def warm():
    """One small untraced run first, so one-time allocations (such as
    importing the sampler's module) are not traced."""
    machine = Machine(
        MachineConfig.dash_default(check_coherence=False, metrics_interval=1000)
    )
    machine.run(
        make_workload("random-mix", 16, "default", seed=1,
                      num_blocks=64, ops=20).programs()
    )


def test_marginal_bytes_per_directory_row(warm):
    small_peak, small_rows = _traced_run(1024, 100)
    large_peak, large_rows = _traced_run(4096, 400)
    assert large_rows > small_rows + 2000
    per_row = (large_peak - small_peak) / (large_rows - small_rows)
    assert per_row < BYTES_PER_ROW_LIMIT, (
        f"{per_row:.0f} traced bytes per touched block "
        f"({small_rows} -> {large_rows} rows)"
    )


def test_metrics_sampler_adds_no_per_block_state(warm):
    # The sampler reads queue depths each tick; it must not materialize a
    # view or a pending queue per directory row (that cost +49% here).
    plain_peak, rows = _traced_run(4096, 200)
    sampled_peak, sampled_rows = _traced_run(4096, 200, metrics_interval=1000)
    assert sampled_rows == rows
    assert sampled_peak <= 1.05 * plain_peak, (plain_peak, sampled_peak)
