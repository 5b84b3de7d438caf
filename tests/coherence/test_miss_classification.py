"""Cold / coherence / replacement miss classification on explicit ops.

Each cache controller marks, per block, whether it has missed on the
block before and whether its copy was lost to another node's write since.
A copy gained without a miss (an exclusive prefetch) and then lost still
leaves the next miss cold: the node never missed on that block before.
"""

from repro.coherence.cache_ctrl import _MARK_PAGE
from repro.cpu.ops import Barrier, Compute, PrefetchEx, Read, Write

#: Home node 2, so every transaction below is remote for nodes 0 and 1.
ADDR = 2 * 4096


def _misses(result):
    return tuple(
        result.counter(name)
        for name in ("cold_misses", "coherence_misses", "replacement_misses")
    )


def test_lost_prefetch_then_invalidation(helpers):
    machine = helpers.build()
    per_node = {
        # The prefetch classifies nothing; the Compute lets it complete
        # before node 1's write takes the line away.
        0: [PrefetchEx(ADDR), Compute(500), Barrier(0),
            Barrier(1), Read(ADDR), Barrier(2),
            Barrier(3), Read(ADDR)],
        1: [Barrier(0), Write(ADDR), Barrier(1),
            Barrier(2), Write(ADDR), Barrier(3)],
    }
    for node in range(16):
        per_node.setdefault(node, [Barrier(0), Barrier(1), Barrier(2), Barrier(3)])
    result = helpers.run(machine, per_node)
    assert result.counter("prefetches_issued") == 1
    # Node 1's first write and node 0's first read are cold (node 0 lost
    # its prefetched copy, but had never missed on the block); node 0's
    # second read follows node 1's invalidating upgrade.
    assert _misses(result) == (2, 1, 0)


def test_conflict_eviction_is_one_replacement_miss(helpers):
    # 256-byte direct-mapped cache: ADDR and ADDR + 256 share a frame.
    machine = helpers.build(cache_size=256)
    conflict = ADDR + 256
    result = helpers.run(
        machine, {0: [Read(ADDR), Read(conflict), Read(ADDR)]}
    )
    assert _misses(result) == (2, 0, 1)


def test_sparse_addresses_cost_a_page_of_marks_each(helpers):
    # Marks are paged: a block at a 1 TB address costs one page, not a
    # byte for every block below it.
    machine = helpers.build()
    result = helpers.run(machine, {0: [Read(0), Read(1 << 40)]})
    assert _misses(result) == (2, 0, 0)
    assert sum(map(len, machine.caches[0]._marks.values())) == 2 * _MARK_PAGE
