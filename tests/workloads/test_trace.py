"""Tests of trace recording and trace-driven replay."""

import io

import pytest

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.cpu.ops import OP_MARK, Lock, Read, Unlock, Write
from repro.workloads import make_workload
from repro.workloads.trace import (
    RecordedRun,
    TraceRecorder,
    load_traces,
    record_run,
    replay_programs,
    save_traces,
)


def test_recorder_captures_all_ops():
    config = MachineConfig.dash_default()
    programs = [iter([Read(0), Write(0)])] + [iter(()) for _ in range(15)]
    recorded = record_run(config, programs)
    assert recorded.traces[0] == [Read(0), Write(0)]
    assert all(not t for t in recorded.traces[1:])
    assert recorded.total_ops == 2


def test_recorder_rejects_wrong_count():
    recorder = TraceRecorder(4)
    with pytest.raises(ValueError):
        recorder.wrap([iter(())])


def test_replay_reproduces_identical_run():
    """Replaying a static workload's trace gives identical timing."""
    config = MachineConfig.dash_default()
    workload = make_workload("migratory-counters", 16, iterations=5)
    recorded = record_run(config, workload.programs())
    replayed = recorded.replay(MachineConfig.dash_default())
    assert replayed.execution_time == recorded.result.execution_time


def test_replay_under_other_protocol_differs_from_native():
    """The paper's Section 4.1 point: a trace recorded under W-I replayed
    under AD is not the same experiment as a native AD run when the
    workload makes timing-dependent decisions (dynamic task queue)."""
    wi = MachineConfig.dash_default()
    ad = MachineConfig.dash_default(policy=ProtocolPolicy.adaptive_default())

    recorded = record_run(wi, make_workload("cholesky", 16, "tiny").programs())
    trace_driven = recorded.replay(ad)

    native = Machine(ad).run(make_workload("cholesky", 16, "tiny").programs())

    # Both produce a result, but the frozen schedule differs from the
    # schedule AD would have produced natively.
    assert trace_driven.execution_time != native.execution_time


def test_trace_roundtrip_through_text():
    traces = [[Read(16), Write(16)], [Lock(0), Unlock(0)], []]
    buffer = io.StringIO()
    save_traces(traces, buffer)
    buffer.seek(0)
    loaded = load_traces(buffer)
    # Trailing empty processors are not materialized by the text format.
    assert loaded == [[Read(16), Write(16)], [Lock(0), Unlock(0)]]


def test_load_rejects_unknown_opcode():
    with pytest.raises(ValueError, match="unknown opcode"):
        load_traces(io.StringIO("0 99 5\n"))


def test_replay_of_benchmark_trace_is_coherent():
    config = MachineConfig.dash_default(policy=ProtocolPolicy.adaptive_default())
    recorded = record_run(config, make_workload("water", 16, "tiny").programs())
    replayed = recorded.replay(config)
    assert replayed.execution_time > 0
    # StatsMark ops survive recording (they are part of the trace).
    assert any(
        op[0] == OP_MARK for trace in recorded.traces for op in trace
    )


def test_trace_driven_estimate_differs_at_default_preset():
    """Section 4.1 at the default preset: both methodologies see AD win,
    but the W-I schedule frozen in the trace biases the estimate."""
    wi_config = MachineConfig.dash_default(check_coherence=False)
    ad_config = wi_config.with_(policy=ProtocolPolicy.adaptive_default())
    recorded = record_run(
        wi_config, make_workload("cholesky", 16, "default").programs()
    )
    trace_ad = recorded.replay(ad_config)
    native_ad = Machine(ad_config).run(
        make_workload("cholesky", 16, "default").programs()
    )
    wi_time = recorded.result.execution_time
    assert wi_time / trace_ad.execution_time > 1.05
    assert wi_time / native_ad.execution_time > 1.05
    assert trace_ad.execution_time != native_ad.execution_time
