"""A finished machine is freed by reference counting alone.

``Machine.run()`` (and ``SnoopyMachine.run()``) unwire the machine when
the run ends, cleanly or not, so the object graph holds no reference
cycle and is freed as soon as its owner drops it.  Each check runs with
automatic garbage collection off and asserts that a collection after the
run finds nothing: any new back-edge between components shows up here
as a nonzero count.
"""

import gc

import pytest

from repro import DeadlockError, LivelockError, Machine, MachineConfig
from repro.cpu.ops import Barrier, Write
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.runner import run_workload
from repro.faults import FaultConfig
from repro.protocols import policy_for
from repro.sim.engine import SimulationError
from repro.snoopy import SnoopyConfig, SnoopyMachine
from repro.workloads import make_workload
from tests.faults.test_watchdog import _stuck_programs, _swallow_forwards

PROTOCOLS = ("W-I", "AD", "MESI", "Dragon", "Hybrid")
OPTIONS = {
    "check_coherence": {"check_coherence": True},
    "trace": {"trace": True},
    "metrics_interval": {
        "config": MachineConfig.dash_default(metrics_interval=500)
    },
    "profile_blocks": {"config": MachineConfig.dash_default(profile_blocks=True)},
    "faults": {
        "config": MachineConfig.dash_default(
            faults=FaultConfig(seed=3, intensity=0.5)
        )
    },
}


def _cyclic_garbage(scenario) -> int:
    """Objects the cyclic collector frees after ``scenario()`` returns."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        scenario()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_finished_run_leaves_no_cycles(protocol, option):
    kwargs = {"check_coherence": False, **OPTIONS[option]}

    def scenario():
        run_workload("mp3d", policy_for(protocol), preset="tiny", **kwargs)

    assert _cyclic_garbage(scenario) == 0


def test_snoopy_run_leaves_no_cycles():
    def scenario():
        machine = SnoopyMachine(
            SnoopyConfig(num_processors=4, policy=policy_for("AD"))
        )
        machine.run(make_workload("mp3d", 4, "tiny", seed=42).programs())

    assert _cyclic_garbage(scenario) == 0


def _tick(machine):
    """Keep events flowing so a stall is a livelock, not a drained queue."""
    if not all(p.done for p in machine.processors):
        machine.sim.schedule(100, _tick, machine)


def _livelock():
    machine = Machine(MachineConfig.dash_default(watchdog_window=5_000))
    _swallow_forwards(machine)
    machine.sim.schedule(100, _tick, machine)
    with pytest.raises(LivelockError):
        machine.run(_stuck_programs(machine))


def _deadlock():
    machine = Machine(MachineConfig.dash_default())
    _swallow_forwards(machine)
    with pytest.raises(DeadlockError):
        machine.run(_stuck_programs(machine))


def _snoopy_deadlock():
    machine = SnoopyMachine(SnoopyConfig(num_processors=4))
    with pytest.raises(DeadlockError):
        machine.run([iter([Barrier(0)])] + [iter([]) for _ in range(3)])


def _event_cap():
    """The ``max_events`` valve trips with events still queued."""
    machine = Machine(MachineConfig.dash_default(max_events=2_000))
    programs = make_workload("mp3d", 16, "tiny", seed=42).programs()
    with pytest.raises(SimulationError, match="max_events"):
        machine.run(programs)


def _broken_program():
    yield Write(0)
    raise RuntimeError("workload bug")


def _snoopy_workload_error():
    """A program raises mid-run, leaving the other processors' events queued."""
    machine = SnoopyMachine(SnoopyConfig(num_processors=4))
    programs = make_workload("mp3d", 4, "tiny", seed=42).programs()
    programs[0] = _broken_program()
    with pytest.raises(RuntimeError, match="workload bug"):
        machine.run(programs)


@pytest.mark.parametrize(
    "scenario",
    [_livelock, _deadlock, _snoopy_deadlock, _event_cap, _snoopy_workload_error],
    ids=["livelock", "deadlock", "snoopy-deadlock", "event-cap",
         "snoopy-workload-error"],
)
def test_failed_run_leaves_no_cycles(scenario):
    assert _cyclic_garbage(scenario) == 0


def test_worker_cells_leave_no_cycles():
    """Three cells back to back, as a ``run_many`` or ``serve`` worker runs them."""
    specs = [
        RunSpec.make("mp3d", policy_for("AD"), preset="tiny", seed=seed)
        for seed in (42, 43, 44)
    ]

    def scenario():
        for spec in specs:
            assert execute_spec(spec).ok

    assert _cyclic_garbage(scenario) == 0


def test_state_stays_readable_and_the_machine_cannot_rerun():
    machine = Machine(MachineConfig.dash_default(policy=policy_for("AD")))
    workload = make_workload("mp3d", machine.config.num_nodes, "tiny", seed=42)
    machine.run(workload.programs())
    rows = [
        (block, entry.state, entry.owner, entry.busy)
        for directory in machine.directories
        for block, entry in directory.entries.items()
    ]
    assert rows and not any(busy for *_, busy in rows)
    lines = [
        (block, line.state)
        for controller in machine.caches
        for block, line in controller.cache.valid_blocks()
    ]
    assert lines
    block, _state = lines[0]
    assert any(c.cache.lookup(block) is not None for c in machine.caches)
    assert machine.diagnostic_dump("inspect").mshrs == []
    with pytest.raises(SimulationError):
        machine.run(workload.programs())


def test_snoopy_machine_cannot_rerun():
    machine = SnoopyMachine(SnoopyConfig(num_processors=4))
    workload = make_workload("mp3d", 4, "tiny", seed=42)
    machine.run(workload.programs())
    assert sum(c.cache.count_valid() for c in machine.caches)
    with pytest.raises(SimulationError):
        machine.run(workload.programs())
