"""Self-tests of the benchmark harness (not of the simulator).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import layers
from layers import TARGETS, Recorder, _resolve, _with_overrides, chrome_trace
from summary import tail_percentile

ROOT = Path(__file__).resolve().parents[2]
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_fingerprint():
    from repro.experiments.parallel import result_fingerprint
    from repro.experiments.runner import run_workload
    from repro.protocols import policy_for

    result = run_workload("cholesky", policy_for("AD"), preset="tiny",
                          check_coherence=False, seed=3)
    return result_fingerprint(result)


def _class_attributes():
    from repro.workloads.base import Workload

    attrs = {(Workload, "programs"): Workload.__dict__["programs"]}
    for _layer, _counter, path, method in TARGETS:
        for cls in _with_overrides(_resolve(path), method):
            attrs[(cls, method)] = cls.__dict__[method]
    return attrs


def test_wrappers_keep_fingerprint_and_uninstall_completely():
    before = _class_attributes()
    plain = _tiny_fingerprint()
    recorder = Recorder()
    with recorder:
        assert _class_attributes() != before
        traced = _tiny_fingerprint()
    assert traced == plain
    assert _class_attributes() == before
    snapshot = recorder.snapshot()
    for key in ("sim.schedule", "transport.send", "cache_ctrl.handle",
                "cache_array.find", "directory.handle", "memory.bus",
                "workload.next"):
        assert snapshot[key][0] > 0, key


def test_self_time_of_nested_calls(monkeypatch):
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    monkeypatch.setattr(layers, "perf_counter", lambda: next(ticks))
    recorder = Recorder()
    recorder.spans = []
    inner = recorder.wrap("inner", "call", lambda: 0)
    outer = recorder.wrap("outer", "call", lambda: inner() + 1)
    assert outer() == 1
    snapshot = recorder.snapshot()
    assert snapshot["outer.call"][:2] == [1, 7.0]
    assert snapshot["inner.call"][:2] == [1, 3.0]
    assert snapshot["inner.call"][2] == 1  # one falsy result
    assert recorder.spans == [["outer.call", 0.0, 10.0, -1],
                              ["inner.call", 1.0, 4.0, 0]]
    events = chrome_trace(recorder.spans)["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [-1, 0]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(120) == 90.0
    assert tail_percentile(600) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_catalog_names_and_smoke_pass_reports_every_metric():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in CATALOG["end_to_end"] + CATALOG["per_layer"]]
    names += [w["name"] for w in CATALOG["workloads"]]
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))

    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = [m["name"] for m in CATALOG["end_to_end"] + CATALOG["per_layer"]]
    for workload in CATALOG["workloads"]:
        for metric in metrics:
            assert f"{workload['name']}/{metric}" in result["metrics"]
