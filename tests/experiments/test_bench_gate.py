"""The bench --against result gate: timing is soft, results are hard.

(Timing only becomes hard when the caller opts in with --tolerance;
those cases are covered at the bottom.)
"""

import copy

import pytest

from repro.experiments.bench import compare_bench_results, timing_regressions


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


def test_tolerance_passes_within_threshold():
    old = _snapshot()
    new = copy.deepcopy(old)
    for run in new["runs"]:
        run["wall_time_s"] *= 1.1  # 10% slower
    new["serial_wall_time_s"] *= 1.1
    assert timing_regressions(old, new, 0.25) == []


def test_tolerance_fails_slow_run_with_named_label():
    old = _snapshot()
    new = copy.deepcopy(old)
    new["runs"][1]["wall_time_s"] = 0.4 * 2  # mp3d/AD doubled
    problems = timing_regressions(old, new, 0.25)
    assert len(problems) == 1
    assert "mp3d/AD" in problems[0]


def test_tolerance_fails_total_drift():
    old = _snapshot()
    new = copy.deepcopy(old)
    new["serial_wall_time_s"] = 4.0  # total doubled, per-run unchanged
    problems = timing_regressions(old, new, 0.5)
    assert len(problems) == 1
    assert "total serial wall" in problems[0]


def test_tolerance_ignores_speedups_and_new_labels():
    old = _snapshot()
    new = copy.deepcopy(old)
    for run in new["runs"]:
        run["wall_time_s"] /= 10  # faster never fails
    new["serial_wall_time_s"] /= 10
    new["runs"].append({"label": "barnes/W-I", "wall_time_s": 99.0})
    assert timing_regressions(old, new, 0.0) == []


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        timing_regressions(_snapshot(), _snapshot(), -0.1)


# ---------------------------------------------------------------------------
# Host-comparability warnings (informational, never gate failures)


from pathlib import Path

from repro.experiments.bench import host_warnings, load_bench


def _hosted(cpu=8, platform="Linux-6.18-x86_64", python="3.11.9"):
    doc = _snapshot()
    doc["host"] = {"cpu_count": cpu, "platform": platform, "python": python}
    return doc


def test_same_host_yields_no_warnings():
    assert host_warnings(_hosted(), _hosted()) == []


def test_each_host_field_mismatch_warns():
    old = _hosted()
    warnings = host_warnings(old, _hosted(cpu=32))
    assert len(warnings) == 1 and "CPU count" in warnings[0]
    assert "8" in warnings[0] and "32" in warnings[0]
    assert "informational only" in warnings[0]
    assert any("platform" in w
               for w in host_warnings(old, _hosted(platform="Darwin-arm64")))
    assert any("Python" in w for w in host_warnings(old, _hosted(python="3.12.1")))


def test_all_fields_differ_warns_once_each():
    warnings = host_warnings(_hosted(), _hosted(cpu=2, platform="p2", python="q2"))
    assert len(warnings) == 3


def test_missing_host_metadata_compares_as_none():
    # Old snapshots from before host recording: every field reads None,
    # so comparing two legacy snapshots stays quiet...
    legacy = _snapshot()
    assert host_warnings(legacy, legacy) == []
    # ...but legacy vs modern flags the change.
    warnings = host_warnings(legacy, _hosted())
    assert len(warnings) == 3
    assert all("None" in w for w in warnings)


def test_host_mismatch_does_not_gate():
    old, new = _hosted(), _hosted(cpu=128)
    assert host_warnings(old, new)
    assert compare_bench_results(old, new) == []


def test_committed_baseline_still_loads_and_compares():
    # The committed baseline predates the single pure-Python simulator and
    # carries a variant field that snapshots no longer record: it loads,
    # gates on results, and the extra field raises no host warning.
    baseline = load_bench(
        Path(__file__).resolve().parents[2] / "BENCH_2026-08-08.json"
    )
    host = baseline["host"]
    same_host = _hosted(
        cpu=host["cpu_count"], platform=host["platform"], python=host["python"]
    )
    assert host_warnings(baseline, same_host) == []
    assert compare_bench_results(baseline, copy.deepcopy(baseline)) == []
