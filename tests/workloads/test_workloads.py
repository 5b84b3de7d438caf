"""Workload construction and pattern tests."""

import pytest

from repro.cpu.ops import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_LOCK,
    OP_MARK,
    OP_READ,
    OP_UNLOCK,
    OP_WRITE,
)
from repro.workloads import (
    PAPER_BENCHMARKS,
    PRESET_NAMES,
    PRESETS,
    WORKLOADS,
    Cholesky,
    LU,
    MP3D,
    MigratoryCounters,
    ProducerConsumer,
    Water,
    make_workload,
)


def drain(workload):
    """Materialize all programs into op lists."""
    return [list(p) for p in workload.programs()]


def test_registry_contains_paper_benchmarks():
    for name in PAPER_BENCHMARKS:
        assert name in WORKLOADS
        assert name in PRESETS


def test_make_workload_applies_preset_and_overrides():
    wl = make_workload("mp3d", 16, "tiny", steps=2)
    assert wl.particles == 128
    assert wl.steps == 2


def test_make_workload_unknown_name():
    with pytest.raises(ValueError, match="unknown workload"):
        make_workload("nope", 16)


def test_make_workload_rejects_unknown_presets():
    # A misspelling would run the class defaults (mp3d: 256 cells, not
    # the default preset's 64) and be cached under the misspelled name.
    for preset in ("tnyi", "Tiny", 5):
        with pytest.raises(ValueError, match="choose from tiny, default, paper"):
            make_workload("mp3d", 16, preset)
    # A workload without a preset table runs its defaults under each name.
    for preset in PRESET_NAMES:
        assert make_workload("migratory-counters", 4, preset).num_processors == 4


def test_programs_are_deterministic():
    a = drain(make_workload("mp3d", 8, "tiny", seed=5))
    b = drain(make_workload("mp3d", 8, "tiny", seed=5))
    assert a == b
    c = drain(make_workload("mp3d", 8, "tiny", seed=6))
    assert a != c


def test_every_processor_gets_a_program():
    for name in PAPER_BENCHMARKS:
        wl = make_workload(name, 16, "tiny")
        assert len(wl.programs()) == 16


def test_paper_benchmarks_emit_stats_mark_once_per_processor():
    for name in PAPER_BENCHMARKS:
        for ops in drain(make_workload(name, 8, "tiny")):
            marks = [op for op in ops if op[0] == OP_MARK]
            assert len(marks) == 1, name


def test_lock_unlock_balanced():
    for name in ("cholesky", "water", "migratory-counters"):
        for ops in drain(make_workload(name, 8, "tiny")):
            depth = 0
            held = []
            for code, arg in ops:
                if code == OP_LOCK:
                    depth += 1
                    held.append(arg)
                elif code == OP_UNLOCK:
                    assert held and held[-1] == arg, f"{name}: unlock mismatch"
                    held.pop()
                    depth -= 1
            assert depth == 0, name


def test_mp3d_partitions_particles_evenly():
    wl = MP3D(16, particles=100)
    counts = [len(wl._my_particles(p)) for p in range(16)]
    assert sum(counts) == 100
    assert max(counts) - min(counts) <= 1


def test_mp3d_rejects_too_few_particles():
    with pytest.raises(ValueError):
        MP3D(16, particles=8)


@pytest.mark.parametrize("molecules", [7, 8, 9, 16])
def test_water_half_shell_covers_each_pair_exactly_once(molecules):
    wl = Water(4, molecules=molecules)
    seen = set()
    for mol in range(molecules):
        for partner in wl._partners(mol):
            pair = frozenset({mol, partner})
            assert len(pair) == 2, "self-pair"
            assert pair not in seen, f"duplicate pair {pair}"
            seen.add(pair)
    assert len(seen) == molecules * (molecules - 1) // 2


def test_cholesky_queue_hands_out_every_task_once():
    wl = Cholesky(4, supernodes=12)
    programs = wl.programs()
    tasks = []
    orig_pop = wl._pop_task

    def spy():
        task = orig_pop()
        if task is not None:
            tasks.append(task)
        return task

    wl._pop_task = spy
    for p in programs:
        list(p)
    assert sorted(tasks) == list(range(12))


def test_cholesky_programs_reset_queue():
    wl = Cholesky(4, supernodes=6)
    for p in wl.programs():
        list(p)
    # Second build must hand out all tasks again.
    ops_total = sum(len(list(p)) for p in wl.programs())
    assert ops_total > 6


def test_cholesky_targets_are_later_supernodes():
    wl = Cholesky(4, supernodes=20)
    for s, targets in enumerate(wl.targets):
        assert all(t > s for t in targets)


def test_lu_interleaves_columns():
    wl = LU(4, columns=12)
    assert [wl.owner_of(c) for c in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_lu_rejects_too_few_columns():
    with pytest.raises(ValueError):
        LU(16, columns=4)


def test_migratory_counters_rmw_under_lock():
    wl = MigratoryCounters(4, num_counters=2, iterations=3)
    for ops in drain(wl):
        in_cs = False
        for code, arg in ops:
            if code == OP_LOCK:
                in_cs = True
            elif code == OP_UNLOCK:
                in_cs = False
            elif code in (OP_READ, OP_WRITE):
                assert in_cs, "all data access must be inside the lock"


def test_producer_consumer_roles():
    wl = ProducerConsumer(4, num_items=2, rounds=2)
    programs = drain(wl)
    producer_writes = [op for op in programs[0] if op[0] == OP_WRITE]
    assert producer_writes
    for consumer_ops in programs[1:]:
        assert not [op for op in consumer_ops if op[0] == OP_WRITE]


def test_describe_reports_parameters():
    wl = make_workload("water", 8, "tiny")
    info = wl.describe()
    assert info["name"] == "water"
    assert info["processors"] == 8
    assert info["shared_bytes"] > 0


def test_allocations_do_not_overlap():
    for name in PAPER_BENCHMARKS:
        wl = make_workload(name, 8, "tiny")
        spans = sorted((base, base + size) for _n, base, size in wl.allocator.allocations)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start
