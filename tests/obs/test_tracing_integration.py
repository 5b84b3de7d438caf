"""End-to-end tracing acceptance: tiny MP3D under W-I and AD.

These are the ISSUE's acceptance checks: every span's per-segment cycles
tile its measured latency exactly, the AD trace shows fewer invalidations
for migratory blocks than W-I, and enabling tracing never changes the
simulation itself.
"""

import pytest

from repro.core.policy import ProtocolPolicy
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.workloads import make_workload


def _traced_run(policy, trace=True):
    config = MachineConfig.dash_default(policy=policy, trace=trace)
    machine = Machine(config)
    workload = make_workload("mp3d", config.num_nodes, "tiny", seed=42)
    result = machine.run(workload.programs())
    return machine, result


@pytest.fixture(scope="module")
def wi_run():
    return _traced_run(ProtocolPolicy("W-I"))


@pytest.fixture(scope="module")
def ad_run():
    return _traced_run(ProtocolPolicy("AD"))


def test_every_span_tiles_its_latency(wi_run, ad_run):
    for machine, _ in (wi_run, ad_run):
        tracer = machine.tracer
        assert tracer.spans, "expected traced transactions"
        for span in tracer.spans:
            assert sum(span.segments.values()) == span.latency, span
        assert not tracer.live, "all transactions should retire"


def test_every_miss_opened_a_span(wi_run):
    machine, result = wi_run
    # Counters reset at the StatsMark (steady-state measurement); the
    # tracer deliberately covers the whole run including warmup, so it
    # sees at least every measured miss.
    misses = (
        result.counter("read_misses")
        + result.counter("write_misses")
        + result.counter("write_upgrades")
        + result.counter("prefetches_issued")
    )
    assert len(machine.tracer.spans) >= misses
    summary = machine.tracer.summary()
    assert sum(s["count"] for s in summary["by_op"].values()) == len(
        machine.tracer.spans
    )


def test_ad_traces_fewer_invalidations_than_wi(wi_run, ad_run):
    wi_tracer, ad_tracer = wi_run[0].tracer, ad_run[0].tracer
    # Migratory blocks under AD move by ownership transfer (Mack) instead
    # of an invalidate round on every write — the invalidation segments in
    # the trace drop accordingly (paper Section 3).
    assert ad_tracer.total_invals < wi_tracer.total_invals
    ad_summary = ad_tracer.summary()
    assert ad_summary["served_by"].get("migratory", 0) > 0
    assert wi_tracer.summary()["served_by"].get("migratory", 0) == 0


def test_segment_vocabulary_and_served_by_are_populated(ad_run):
    tracer = ad_run[0].tracer
    seen_segments = set()
    for span in tracer.spans:
        seen_segments.update(span.segments)
        assert span.served_by in ("memory", "owner", "migratory")
    assert {"request_net", "reply_net", "local_cache"} <= seen_segments
    assert "directory" in seen_segments or "memory" in seen_segments


def test_summary_feeds_run_result(ad_run):
    _, result = ad_run
    assert result.latency is not None
    assert result.latency["spans_closed"] == len(ad_run[0].tracer.spans)
    assert "read" in result.latency["by_op"]


def test_state_transitions_are_recorded(ad_run):
    tracer = ad_run[0].tracer
    transitions = [t for span in tracer.spans for t in span.transitions]
    assert transitions
    sites = {t[1] for t in transitions}
    assert any(site.startswith("dir") for site in sites)
    assert any(site.startswith("cache") for site in sites)


def test_dragon_update_transactions_trace_and_tile():
    """Write-update commits (Wu -> Wup -> Uacks) trace like any other
    transaction: segments tile, data is "served by" the update commit,
    and the Upd fan-out is counted per span."""
    machine, _ = _traced_run(ProtocolPolicy("Dragon"))
    tracer = machine.tracer
    for span in tracer.spans:
        assert sum(span.segments.values()) == span.latency, span
    assert not tracer.live
    summary = tracer.summary()
    assert summary["served_by"].get("update", 0) > 0
    assert summary["updates"] > 0
    updated = [s for s in tracer.spans if s.served_by == "update"]
    assert updated
    # A committed write crosses both meshes and touches home memory.
    sample = max(updated, key=lambda s: s.n_updates)
    assert sample.n_updates >= 1
    assert {"request_net", "memory", "reply_net", "local_cache"} <= set(
        sample.segments
    )


def test_tracing_disabled_is_result_identical(ad_run):
    machine, traced = ad_run
    plain_machine, plain = _traced_run(
        ProtocolPolicy("AD"), trace=False
    )
    assert plain_machine.tracer is None
    assert plain.execution_time == traced.execution_time
    assert plain.network_bits == traced.network_bits
    assert plain.events_processed == traced.events_processed
    assert plain.counters.as_dict() == traced.counters.as_dict()
    assert plain.latency is None
