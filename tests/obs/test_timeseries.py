"""MetricsRing bounds/export and MetricsSampler behaviour on a machine."""

import json

import pytest

from repro.core.policy import ProtocolPolicy
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.obs.timeseries import COLUMNS, MetricsRing
from repro.workloads import make_workload


def test_ring_bounds_and_drop_accounting():
    ring = MetricsRing(columns=("a", "b"), capacity=3)
    for i in range(5):
        ring.append((i, i * 10))
    assert len(ring) == 3
    assert ring.total_samples == 5
    assert ring.dropped == 2
    assert ring.rows == [(2, 20), (3, 30), (4, 40)]  # oldest evicted first


def test_ring_rejects_bad_rows_and_capacity():
    ring = MetricsRing(columns=("a", "b"), capacity=2)
    with pytest.raises(ValueError):
        ring.append((1,))
    with pytest.raises(ValueError):
        MetricsRing(capacity=0)


def test_ring_csv_export():
    ring = MetricsRing(columns=("time", "util"), capacity=4)
    ring.append((100, 0.25))
    ring.append((200, 0.5))
    lines = ring.to_csv().strip().split("\n")
    assert lines[0] == "time,util"
    assert lines[1] == "100,0.25"
    assert len(lines) == 3


def test_ring_json_export(tmp_path):
    ring = MetricsRing(columns=("time", "depth"), capacity=2)
    for i in range(3):
        ring.append((i, i))
    target = tmp_path / "metrics.json"
    ring.write_json(str(target))
    doc = json.loads(target.read_text())
    assert doc["schema"] == "repro-metrics/1"
    assert doc["columns"] == ["time", "depth"]
    assert doc["dropped"] == 1
    assert doc["rows"] == [[1, 1], [2, 2]]


def _run(policy, **cfg_overrides):
    config = MachineConfig.dash_default(policy=policy, **cfg_overrides)
    machine = Machine(config)
    workload = make_workload("migratory-counters", config.num_nodes, "tiny", seed=42)
    result = machine.run(workload.programs())
    return machine, result


def test_sampler_samples_and_terminates():
    machine, result = _run(
        ProtocolPolicy("AD"), metrics_interval=100
    )
    ring = machine.metrics.ring
    assert len(ring) > 0
    assert ring.columns == COLUMNS
    times = [row[0] for row in ring.rows]
    assert times == sorted(times)
    # The sampler must not keep the run alive past quiescence: the last
    # sample falls within one interval of the machine finishing.
    assert times[-1] <= result.execution_time + 2 * 100
    # Depth and occupancy columns are sane.
    for row in ring.rows:
        record = dict(zip(ring.columns, row))
        assert record["mshrs"] >= 0
        assert record["dir_pending"] >= 0
        assert 0.0 <= record["bus_util"]
        assert 0.0 <= record["mem_util"]


def test_sampler_does_not_change_results():
    _, plain = _run(ProtocolPolicy("AD"))
    _, sampled = _run(ProtocolPolicy("AD"), metrics_interval=50)
    assert plain.execution_time == sampled.execution_time
    assert plain.network_bits == sampled.network_bits
    assert plain.counters.as_dict() == sampled.counters.as_dict()


def test_sampler_capacity_bounds_retention():
    machine, _ = _run(
        ProtocolPolicy("W-I"), metrics_interval=10,
        metrics_capacity=5,
    )
    ring = machine.metrics.ring
    assert len(ring) <= 5
    assert ring.total_samples > 5
    assert ring.dropped == ring.total_samples - len(ring)


#: ``dir_pending`` of tiny producer-consumer under AD, sampled every 400
#: pclocks: readers queue behind each forwarded read of the produced line.
PRODUCER_CONSUMER_DIR_PENDING = [
    1, 9, 7, 0, 0, 7, 1, 0, 0, 0, 0, 5, 3, 0, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0,
    0, 0, 9, 3, 1, 0, 0, 1, 8, 5, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 0, 10,
    6, 3, 0, 0,
]


def test_dir_pending_series_is_pinned():
    config = MachineConfig.dash_default(
        policy=ProtocolPolicy("AD"), metrics_interval=400
    )
    machine = Machine(config)
    workload = make_workload("producer-consumer", config.num_nodes, "tiny", seed=42)
    machine.run(workload.programs())
    ring = machine.metrics.ring
    column = ring.columns.index("dir_pending")
    assert [row[column] for row in ring.rows] == PRODUCER_CONSUMER_DIR_PENDING


@pytest.mark.parametrize("workload", ["mp3d", "lu"])
def test_occupancy_is_never_negative_across_the_stats_mark(workload):
    """The StatsMark restarts counters, not resources, so the window that
    spans it reads a true occupancy like every other window."""
    config = MachineConfig.dash_default(
        policy=ProtocolPolicy("AD"), metrics_interval=100
    )
    machine = Machine(config)
    machine.run(make_workload(workload, config.num_nodes, "tiny", seed=42).programs())
    assert machine._mark_time > 0  # the run passed a StatsMark
    ring = machine.metrics.ring
    for column in ("bus_util", "mem_util", "req_net_util", "reply_net_util"):
        index = ring.columns.index(column)
        assert min(row[index] for row in ring.rows) >= 0, column
