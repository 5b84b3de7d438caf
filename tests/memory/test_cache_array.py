"""Unit tests for the cache tag/state array."""

import tracemalloc

import pytest

from repro.memory import CacheArray, CacheGeometryError, CacheState


def test_geometry_64k_direct_mapped():
    c = CacheArray(64 * 1024, 16, 1)
    assert c.num_sets == 4096


def test_direct_mapped_frame_costs_at_most_12_bytes():
    # Tag and version (4 bytes each), state and lock (1 byte each), and no
    # recency stamp: with one way per set there is no victim to choose.
    tracemalloc.start()
    try:
        c = CacheArray(64 * 1024, 16, 1)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert c.lru is None
    assert traced / c.num_frames <= 12, f"{traced / c.num_frames:.1f} B/frame"


def test_geometry_4k():
    c = CacheArray(4 * 1024, 16, 1)
    assert c.num_sets == 256


def test_invalid_geometry_rejected():
    with pytest.raises(CacheGeometryError):
        CacheArray(0, 16)
    with pytest.raises(CacheGeometryError):
        CacheArray(1000, 16)  # not divisible
    with pytest.raises(CacheGeometryError):
        CacheArray(48, 16, 1)  # 3 sets: not a power of two
    with pytest.raises(CacheGeometryError):
        CacheArray(64, 12, 1)  # line not a power of two


def test_block_mapping_roundtrip():
    c = CacheArray(1024, 16, 1)  # 64 sets
    for block in [0, 1, 63, 64, 65, 1000]:
        assert c.block_from(c.tag_of(block), c.set_index(block)) == block


def test_block_of_strips_offset():
    c = CacheArray(1024, 16, 1)
    assert c.block_of(0) == 0
    assert c.block_of(15) == 0
    assert c.block_of(16) == 1
    assert c.block_of(47) == 2


def test_lookup_miss_then_install_then_hit():
    c = CacheArray(256, 16, 1)
    assert c.lookup(5) is None
    line = c.install(5, CacheState.SHARED, version=3)
    assert line.state is CacheState.SHARED
    assert c.lookup(5) is line
    assert c.lookup(5).version == 3


def test_conflicting_blocks_map_to_same_frame():
    c = CacheArray(256, 16, 1)  # 16 sets
    c.install(1, CacheState.SHARED, 0)
    victim = c.victim_for(17)  # 17 % 16 == 1
    assert victim.valid and victim.tag == c.tag_of(1)


def test_install_over_live_line_rejected():
    c = CacheArray(256, 16, 1)
    c.install(1, CacheState.DIRTY, 0)
    with pytest.raises(CacheGeometryError):
        c.install(17, CacheState.SHARED, 0)


def test_invalidate_frees_frame():
    c = CacheArray(256, 16, 1)
    line = c.install(1, CacheState.DIRTY, 2)
    line.invalidate()
    assert c.lookup(1) is None
    c.install(17, CacheState.SHARED, 0)  # no eviction needed now


def test_lru_within_set():
    c = CacheArray(512, 16, 2)  # 16 sets, 2-way
    a = c.install(1, CacheState.SHARED, 0)
    b = c.install(17, CacheState.SHARED, 0)
    c.touch(a)  # a most recently used; victim should be b
    assert c.victim_for(33) is b


def test_replace_locked_frames_skipped():
    c = CacheArray(512, 16, 2)
    a = c.install(1, CacheState.MIGRATING, 0)
    b = c.install(17, CacheState.SHARED, 0)
    a.replace_locked = True
    c.touch(b)  # b is MRU, but a is locked -> victim must be b
    assert c.victim_for(33) is b


def test_all_locked_set_returns_lru_locked():
    c = CacheArray(256, 16, 1)
    a = c.install(1, CacheState.MIGRATING, 0)
    a.replace_locked = True
    assert c.victim_for(17) is a


def test_valid_blocks_enumeration():
    c = CacheArray(256, 16, 1)
    c.install(3, CacheState.SHARED, 0)
    c.install(8, CacheState.DIRTY, 1)
    blocks = dict(c.valid_blocks())
    assert set(blocks) == {3, 8}
    assert c.count_valid() == 2


def test_migrating_is_writable_readable():
    from repro.memory import READABLE_STATES, WRITABLE_STATES

    assert CacheState.MIGRATING in WRITABLE_STATES
    assert CacheState.MIGRATING in READABLE_STATES
    assert CacheState.SHARED not in WRITABLE_STATES
