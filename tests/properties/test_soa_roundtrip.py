"""Round-trip properties of the struct-of-arrays hot-core storage.

The cache and directory keep their per-line/per-block state in dense
typed columns (``array`` / ``bytearray``) for the hot paths, while
cold paths (checker, dumps, tests) see thin view objects.  These tests
pin the contract: everything written through one surface must read back
identically through the other, and the enum <-> integer-code mappings
must stay bijective.  A failure here means the SoA flattening changed
*state*, not just layout.
"""

import pytest

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.coherence.states import DIR_STATES_BY_CODE, DirState
from repro.cpu.ops import Barrier, Read, Write
from repro.memory.cache import STATES_BY_CODE, CacheArray, CacheState


def run(machine, per_node):
    programs = [iter(per_node.get(n, [])) for n in range(machine.config.num_nodes)]
    return machine.run(programs)


# ----------------------------------------------------------------------
# Enum <-> code bijections
# ----------------------------------------------------------------------
def test_cache_state_codes_bijective():
    assert len(STATES_BY_CODE) == len(CacheState)
    for state in CacheState:
        assert STATES_BY_CODE[state.code] is state


def test_dir_state_codes_bijective():
    assert len(DIR_STATES_BY_CODE) == len(DirState)
    for state in DirState:
        assert DIR_STATES_BY_CODE[state.code] is state


# ----------------------------------------------------------------------
# CacheArray: columns <-> views
# ----------------------------------------------------------------------
def test_cache_view_reads_columns():
    c = CacheArray(256, 16, 1)  # 16 direct-mapped frames
    index = c.install_index(block=5, state_code=CacheState.SHARED.code, version=7)
    view = c.view(index)
    assert view.state is CacheState.SHARED
    assert view.tag == c.tag_of(5)
    assert view.version == 7
    assert view.valid
    # Raw columns agree with the view.
    assert c.states[index] == CacheState.SHARED.code
    assert c.tags[index] == c.tag_of(5)
    assert c.versions[index] == 7


def test_cache_view_writes_columns():
    c = CacheArray(256, 16, 1)
    index = c.install_index(block=3, state_code=CacheState.DIRTY.code, version=1)
    view = c.view(index)
    view.state = CacheState.MIGRATING
    view.version = 9
    view.replace_locked = True
    assert c.states[index] == CacheState.MIGRATING.code
    assert c.versions[index] == 9
    assert c.locked[index] == 1
    view.invalidate()
    assert c.states[index] == CacheState.INVALID.code
    assert not view.valid
    assert c.find(3) < 0


def test_cache_views_are_stable_objects():
    c = CacheArray(256, 16, 1)
    index = c.install_index(block=2, state_code=CacheState.SHARED.code, version=0)
    assert c.view(index) is c.view(index)
    assert c.lookup(2) is c.view(index)


def test_cache_index_and_view_api_equivalent():
    """install() (view API) and install_index() populate identical columns."""
    via_view = CacheArray(512, 16, 2)
    via_index = CacheArray(512, 16, 2)
    for block, state in ((0, CacheState.SHARED), (16, CacheState.DIRTY),
                         (3, CacheState.MIGRATING)):
        via_view.install(block, state, version=block + 1)
        via_index.install_index(block, state.code, version=block + 1)
    assert via_view.tags == via_index.tags
    assert via_view.states == via_index.states
    assert via_view.versions == via_index.versions
    assert via_view.count_valid() == via_index.count_valid()
    assert (sorted(b for b, _ in via_view.valid_blocks())
            == sorted(b for b, _ in via_index.valid_blocks()))


# ----------------------------------------------------------------------
# Directory: columns <-> entry views, after a real protocol run
# ----------------------------------------------------------------------
def _run_sharing_machine():
    machine = Machine(
        MachineConfig.dash_default(policy=ProtocolPolicy("AD"))
    )
    addr = 4096  # one migratory block plus one read-shared block
    shared = 8192
    per_node = {
        0: [Read(shared), Read(addr), Write(addr), Barrier(0), Barrier(1)],
        1: [Read(shared), Barrier(0), Read(addr), Write(addr), Barrier(1)],
        2: [Read(shared), Barrier(0), Barrier(1), Read(addr), Write(addr)],
    }
    for n in range(machine.config.num_nodes):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    run(machine, per_node)
    return machine


def test_directory_entry_views_match_columns():
    machine = _run_sharing_machine()
    seen_any = False
    for directory in machine.directories:
        for block, entry in directory.entries.items():
            seen_any = True
            row = directory.entries.row_of(block)
            assert entry.state is DIR_STATES_BY_CODE[directory._states[row]]
            owner = directory._owners[row]
            assert entry.owner == (None if owner < 0 else owner)
            assert entry.sharers is directory._sharers[row]
            assert entry.version == directory._versions[row]
            assert entry.busy == bool(directory._busy[row])
            assert entry.awaiting_wb == bool(directory._awaiting[row])
    assert seen_any, "workload touched no directory entries"


def test_directory_entries_view_is_dict_like():
    machine = _run_sharing_machine()
    for directory in machine.directories:
        entries = directory.entries
        assert len(entries) == len(list(entries))
        for block in entries:
            assert block in entries
            assert entries.get(block) is entries[block]
        assert entries.get(-1) is None
        with pytest.raises(KeyError):
            entries[-1]
        assert sorted(entries.keys()) == sorted(b for b, _ in entries.items())
        assert len(list(entries.values())) == len(entries)


def test_directory_entry_setters_write_columns():
    machine = _run_sharing_machine()
    directory = next(d for d in machine.directories if len(d.entries))
    blocks = list(directory.entries.keys())
    entry = directory.entries[blocks[0]]
    row = directory.entries.row_of(blocks[0])
    entry.state = DirState.MIGRATORY_DIRTY
    entry.owner = 5
    entry.version = 42
    entry.busy = True
    entry.awaiting_wb = True
    assert directory._states[row] == DirState.MIGRATORY_DIRTY.code
    assert directory._owners[row] == 5
    assert directory._versions[row] == 42
    assert directory._busy[row] == 1 and directory._awaiting[row] == 1
    entry.owner = None
    assert directory._owners[row] == -1


def test_rows_are_addressed_by_page():
    """An access adds its whole page of rows, but only a touched block is
    an entry: the rest of the page stays absent until a request touches
    it."""
    machine = Machine(MachineConfig.dash_default(page_size=1024))
    cfg = machine.config
    lines = cfg.page_size // cfg.line_size
    block = (cfg.num_nodes + 3) * lines + 7  # a page whose home is node 3
    run(machine, {0: [Read(block * cfg.line_size)]})
    directory = machine.directories[3]
    entries = directory.entries
    assert len(directory._states) == lines  # one page of rows
    assert list(entries) == [block] and len(entries) == 1
    assert entries[block].state is DirState.SHARED_REMOTE
    for other in (block - 7, block + 1, block - 8 + lines):  # the same page
        assert entries.row_of(other) is None
        assert entries.get(other) is None
        assert other not in entries
        with pytest.raises(KeyError):
            entries[other]
    # A block on an earlier page of the same home adds a page after the
    # first; entries and dumps still list blocks in block order.
    earlier = 3 * lines + 1
    for touched in (block + 2, earlier):
        directory.entry(touched).busy = True
    assert len(directory._states) == 2 * lines
    assert len(entries) == 3
    assert list(entries) == [earlier, block, block + 2]
    assert [t["block"] for t in directory.introspect()] == [earlier, block + 2]


def test_diagnostic_dump_reconstructs_from_soa():
    """DiagnosticDump (the cold-path consumer) renders from SoA state."""
    machine = _run_sharing_machine()
    dump = machine.diagnostic_dump("inspect")
    text = dump.render()
    assert "inspect" in text
    # Quiescent machine: no transient state left in the dump, and the
    # cache columns agree with the view-based census.
    for ctrl in machine.caches:
        assert ctrl.introspect()["mshrs"] == []
        valid_codes = sum(1 for code in ctrl.cache.states if code)
        assert valid_codes == ctrl.cache.count_valid()
