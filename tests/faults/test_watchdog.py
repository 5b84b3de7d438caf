"""Progress-watchdog and diagnostic-dump tests.

An induced stall (a swallowed forward) must trip the watchdog when
events keep firing, or surface as a deadlock when the queue drains —
and in both cases the error must carry a :class:`DiagnosticDump` that
names the stuck MSHR and the wedged directory entry.
"""

import json

import pytest

from repro import (
    DeadlockError,
    DiagnosticDump,
    LivelockError,
    Machine,
    MachineConfig,
)
from repro.coherence.messages import MsgKind
from repro.cpu.ops import Barrier, Read, Write
from repro.faults import FaultConfig
from repro.protocols import policy_for
from repro.snoopy import SnoopyConfig, SnoopyMachine
from repro.workloads import make_workload

ADDR = 8192  # home node 2
BLOCK = ADDR // 16


def _swallow_forwards(machine, node=0):
    """Drop every forward addressed to ``node``'s cache (a 'lost message'
    fault the plan itself would never inject — faults preserve liveness)."""
    real = machine.transport._cache_handlers[node]
    swallowed = []

    def wrapper(msg):
        if msg.kind in (MsgKind.FWD_RR, MsgKind.FWD_RXQ, MsgKind.MR):
            swallowed.append(msg)
            return
        real(msg)

    machine.transport.register_cache(node, wrapper)
    return swallowed


def _stuck_programs(machine):
    """Node 0 owns ADDR dirty; node 1's read will hang on the lost forward."""
    per_node = {
        0: [Write(ADDR), Barrier(0)],
        1: [Barrier(0), Read(ADDR)],
    }
    for n in range(machine.config.num_nodes):
        per_node.setdefault(n, [Barrier(0)])
    return [iter(per_node[n]) for n in range(machine.config.num_nodes)]


def _assert_dump_names_the_stall(dump):
    assert any(m["node"] == 1 and m["block"] == BLOCK for m in dump.mshrs)
    assert any(
        t["home"] == 2 and t["block"] == BLOCK and (t["busy"] or t["inflight"])
        for t in dump.transients
    )


def test_watchdog_trips_with_structured_dump():
    machine = Machine(MachineConfig.dash_default(watchdog_window=5_000))
    swallowed = _swallow_forwards(machine)

    def tick():  # keep events flowing so the stall is a livelock, not a drain
        if not all(p.done for p in machine.processors):
            machine.sim.schedule(100, tick)

    machine.sim.schedule(100, tick)
    with pytest.raises(LivelockError) as exc:
        machine.run(_stuck_programs(machine))
    assert swallowed, "the induced fault never fired"
    err = exc.value
    assert "progress watchdog" in str(err)
    dump = err.dump
    assert dump is not None and dump.reason == "livelock"
    _assert_dump_names_the_stall(dump)
    # The text rendering names the same state...
    text = dump.render()
    assert f"block {BLOCK}" in text
    assert "blocked on memory" in text
    # ...and the JSON form round-trips losslessly (dict key order aside).
    rebuilt = DiagnosticDump.from_json(json.loads(dump.to_json_str()))
    assert rebuilt.to_json() == dump.to_json()
    _assert_dump_names_the_stall(rebuilt)


def test_drained_queue_reports_deadlock_with_dump():
    machine = Machine(MachineConfig.dash_default())  # no watchdog, no ticks
    _swallow_forwards(machine)
    with pytest.raises(DeadlockError) as exc:
        machine.run(_stuck_programs(machine))
    dump = exc.value.dump
    assert dump is not None and dump.reason == "deadlock"
    _assert_dump_names_the_stall(dump)
    assert "never finished" in str(exc.value)


def test_update_protocol_stall_renders_committed_mshr():
    """A Dragon write wedged between home-commit and its Uacks must be
    legible in the dump: the MSHR shows ``committed`` with the ack
    shortfall, so the triage points at the lost update, not the fill."""
    from repro.core.policy import ProtocolPolicy

    machine = Machine(
        MachineConfig.dash_default(policy=ProtocolPolicy("Dragon"))
    )
    swallowed = []
    real = machine.transport._cache_handlers[1]

    def wrapper(msg):
        if msg.kind is MsgKind.UPD:
            swallowed.append(msg)
            return
        real(msg)

    machine.transport.register_cache(1, wrapper)
    # Both caches share the line before node 0's write fires the update.
    per_node = {
        0: [Read(ADDR), Barrier(0), Barrier(1), Write(ADDR)],
        1: [Barrier(0), Read(ADDR), Barrier(1)],
    }
    for n in range(machine.config.num_nodes):
        per_node.setdefault(n, [Barrier(0), Barrier(1)])
    with pytest.raises(DeadlockError) as exc:
        machine.run([iter(per_node[n]) for n in range(machine.config.num_nodes)])
    assert swallowed, "the induced fault never fired"
    dump = exc.value.dump
    stuck = [m for m in dump.mshrs if m["node"] == 0 and m["block"] == BLOCK]
    assert stuck and stuck[0]["committed"]
    assert stuck[0]["acks_received"] < stuck[0]["acks_expected"]
    text = dump.render()
    assert "committed" in text
    assert f"block {BLOCK}" in text


@pytest.mark.parametrize("protocol, faults", [
    ("W-I", None),
    ("AD", None),
    ("Dragon", None),
    # Reorder holds: a swap releases a held message before its flush.
    ("AD", FaultConfig(seed=3, intensity=1.0)),
])
def test_dump_lists_exactly_the_messages_in_flight(protocol, faults):
    """Mid-run dumps read the event queue: every message between
    ``Transport.send`` and its dispatch appears once, and a reply still
    waiting out its service delay appears via ``Transport.send``."""
    config = MachineConfig.dash_default(policy=policy_for(protocol), faults=faults)
    machine = Machine(config)
    checked = []

    def probe():
        dump = machine.diagnostic_dump()
        moving = [m for m in dump.messages if m["via"] != "Transport.send"]
        assert len(moving) == machine.transport.in_flight
        assert all(m["due"] >= dump.sim_time for m in dump.messages)
        checked.append(len(moving))
        if not all(p.done for p in machine.processors):
            machine.sim.schedule(37, probe)

    machine.sim.schedule(37, probe)
    machine.run(make_workload("mp3d", config.num_nodes, "tiny", seed=42).programs())
    assert len(checked) > 400 and max(checked) > 20


def test_watchdog_silent_on_a_healthy_run():
    machine = Machine(MachineConfig.dash_default(watchdog_window=5_000))
    per_node = {0: [Write(ADDR)], 1: [Read(ADDR)]}
    programs = [
        iter(per_node.get(n, [])) for n in range(machine.config.num_nodes)
    ]
    machine.run(programs)  # must not raise


def test_snoopy_deadlock_uses_the_same_dump_format():
    machine = SnoopyMachine(SnoopyConfig(num_processors=4))
    programs = [iter([Barrier(0)])] + [iter([]) for _ in range(3)]
    with pytest.raises(DeadlockError) as exc:
        machine.run(programs)
    dump = exc.value.dump
    assert dump is not None and dump.reason == "deadlock"
    stuck = [p for p in dump.processors if not p["done"]]
    assert [p["node"] for p in stuck] == [0]
    assert "waiting at barrier" in stuck[0]["state"]
    assert dump.extra["sync"]["barrier_waiters"] == {0: [0]}
