"""The bench --against result gate: results must match exactly, and
timing fields (which older snapshots carry) are ignored."""

import copy
from pathlib import Path

from repro.experiments.bench import compare_bench_results, load_bench

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_2026-08-08.json"


def _snapshot(**overrides):
    doc = {
        "schema": "repro-bench/1",
        "created": "2026-08-06T00:00:00+00:00",
        "suite": "figure5",
        "preset": "tiny",
        "serial_wall_time_s": 2.0,
        "runs": [
            {
                "label": "mp3d/W-I",
                "wall_time_s": 0.5,
                "events_per_sec": 50_000,
                "events_processed": 36_250,
                "execution_time": 11_265,
                "network_bits": 1_000_000,
                "counters": {"read_misses": 10, "writebacks": 3},
            },
            {
                "label": "mp3d/AD",
                "wall_time_s": 0.4,
                "events_per_sec": 60_000,
                "events_processed": 29_842,
                "execution_time": 7_445,
                "network_bits": 800_000,
                "counters": {"read_misses": 9, "nominations": 4},
            },
        ],
    }
    doc.update(overrides)
    return doc


def test_identical_results_pass():
    old = _snapshot()
    new = copy.deepcopy(old)
    assert compare_bench_results(old, new) == []


def test_timing_drift_alone_passes():
    # Wall times and throughput are measurements, not results.
    old = _snapshot()
    new = copy.deepcopy(old)
    new["serial_wall_time_s"] = 37.0
    for run in new["runs"]:
        run["wall_time_s"] *= 10
        run["events_per_sec"] //= 10
    assert compare_bench_results(old, new) == []


def test_execution_time_change_fails():
    old = _snapshot()
    new = copy.deepcopy(old)
    new["runs"][0]["execution_time"] += 1
    problems = compare_bench_results(old, new)
    assert len(problems) == 1
    assert "mp3d/W-I" in problems[0] and "execution_time" in problems[0]


def test_counter_change_fails_with_named_counter():
    old = _snapshot()
    new = copy.deepcopy(old)
    new["runs"][1]["counters"]["nominations"] = 5
    problems = compare_bench_results(old, new)
    assert len(problems) == 1
    assert "nominations" in problems[0] and "mp3d/AD" in problems[0]


def test_missing_counter_fails():
    old = _snapshot()
    new = copy.deepcopy(old)
    del new["runs"][0]["counters"]["writebacks"]
    problems = compare_bench_results(old, new)
    assert len(problems) == 1
    assert "writebacks" in problems[0]


def test_new_label_skipped():
    old = _snapshot()
    new = copy.deepcopy(old)
    new["runs"].append(
        {
            "label": "barnes/W-I",
            "wall_time_s": 0.1,
            "events_per_sec": 1,
            "events_processed": 1,
            "execution_time": 1,
            "network_bits": 1,
            "counters": {},
        }
    )
    assert compare_bench_results(old, new) == []


def test_preset_mismatch_is_one_clear_failure():
    old = _snapshot()
    new = _snapshot(preset="default")
    problems = compare_bench_results(old, new)
    assert len(problems) == 1
    assert "preset" in problems[0]


def test_committed_baseline_still_loads_and_compares():
    # The committed baseline predates the result-only snapshot: it still
    # carries wall times, events/s and a parallel-pass record. It loads,
    # and the gate reads only its results.
    baseline = load_bench(BASELINE)
    assert compare_bench_results(baseline, copy.deepcopy(baseline)) == []


def test_baseline_runs_missing_from_new_snapshot_fail():
    baseline = load_bench(BASELINE)
    labels = [run["label"] for run in baseline["runs"]]
    cut = copy.deepcopy(baseline)
    cut["runs"] = cut["runs"][:1]
    assert compare_bench_results(baseline, cut) == [
        f"{label}: missing from the new snapshot" for label in labels[1:]
    ]
    cut["runs"] = []
    assert len(compare_bench_results(baseline, cut)) == len(labels) == 8
