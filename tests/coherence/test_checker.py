"""Unit tests for the coherence-violation oracle."""

import pytest

from repro.coherence.checker import CoherenceChecker, CoherenceViolation
from repro.core.policy import PROTOCOL_NAMES
from repro.experiments.parallel import result_fingerprint
from repro.machine.config import MachineConfig
from repro.machine.system import Machine
from repro.protocols import policy_for
from repro.snoopy.machine import SnoopyConfig, SnoopyMachine
from repro.workloads import make_workload


def test_writes_advance_versions():
    c = CoherenceChecker()
    assert c.on_write(0, 5, 0) == 1
    assert c.on_write(1, 5, 1) == 2
    assert c.latest[5] == 2


def test_lost_update_detected():
    c = CoherenceChecker()
    c.on_write(0, 5, 0)
    with pytest.raises(CoherenceViolation, match="lost update"):
        c.on_write(1, 5, 0)  # built on a stale version


def test_read_monotonicity_enforced():
    c = CoherenceChecker()
    c.on_write(0, 5, 0)
    c.on_read(1, 5, 1)
    with pytest.raises(CoherenceViolation, match="backwards"):
        c.on_read(1, 5, 0)


def test_read_of_future_version_detected():
    c = CoherenceChecker()
    with pytest.raises(CoherenceViolation, match="committed"):
        c.on_read(0, 5, 3)


def test_stale_read_by_other_node_allowed():
    # Node 1 may legitimately still see version 0 after node 0 wrote,
    # as long as node 1 never observed version 1.
    c = CoherenceChecker()
    c.on_write(0, 5, 0)
    c.on_read(1, 5, 0)  # fine


def test_single_writer_enforced():
    c = CoherenceChecker()
    c.acquire_writable(0, 7)
    with pytest.raises(CoherenceViolation, match="writable"):
        c.acquire_writable(1, 7)


def test_writable_handoff():
    c = CoherenceChecker()
    c.acquire_writable(0, 7)
    c.release_writable(0, 7)
    c.acquire_writable(1, 7)  # fine after release


def test_release_by_non_holder_detected():
    c = CoherenceChecker()
    c.acquire_writable(0, 7)
    with pytest.raises(CoherenceViolation):
        c.release_writable(1, 7)


def test_reset_clears_counters_but_keeps_state():
    c = CoherenceChecker()
    c.on_write(0, 5, 0)
    c.on_read(1, 5, 1)
    c.acquire_writable(0, 7)
    assert (c.reads_checked, c.writes_checked) == (1, 1)
    c.reset()
    assert (c.reads_checked, c.writes_checked) == (0, 0)
    # Version and single-writer state stay warm: the invariants still fire.
    with pytest.raises(CoherenceViolation, match="lost update"):
        c.on_write(1, 5, 0)
    with pytest.raises(CoherenceViolation, match="writable"):
        c.acquire_writable(1, 7)


def test_reset_with_state_forgets_everything():
    c = CoherenceChecker()
    c.on_write(0, 5, 0)
    c.acquire_writable(0, 7)
    c.reset(state=True)
    assert c.latest == {}
    c.on_write(1, 5, 0)  # fresh history: version restarts at 1
    c.acquire_writable(1, 7)  # writer table cleared too


def test_disabled_checker_still_hands_out_versions():
    # A write builds on the version its writer holds, and nothing is
    # kept: with checks on that version is always the latest one.
    c = CoherenceChecker(enabled=False)
    assert c.on_write(0, 5, 0) == 1
    assert c.on_write(1, 5, 99) == 100
    assert c.latest == {}
    c.on_read(0, 5, 42)  # no-op
    c.acquire_writable(0, 5)
    c.acquire_writable(1, 5)  # no-op: no violation raised
    assert c.reads_checked == 0
    assert c.writes_checked == 0


def _directory_run(app, name, check):
    """(fingerprint, final cache and directory version columns)."""
    cfg = MachineConfig.dash_default(policy=policy_for(name), check_coherence=check)
    machine = Machine(cfg)
    result = machine.run(make_workload(app, cfg.num_nodes, "tiny", seed=7).programs())
    assert check or machine.checker.latest == {}
    return (
        result_fingerprint(result),
        [list(c.cache.versions) for c in machine.caches],
        [list(d._versions) for d in machine.directories],
    )


def _bus_run(app, name, check):
    machine = SnoopyMachine(
        SnoopyConfig(policy=policy_for(name), check_coherence=check)
    )
    num = machine.config.num_processors
    result = machine.run(make_workload(app, num, "tiny", seed=7).programs())
    return (
        result.execution_time, result.counters.as_dict(),
        result.bus_transactions, result.bus_bits,
        [list(c.cache.versions) for c in machine.caches],
    )


@pytest.mark.parametrize("app", ["mp3d", "cholesky", "water", "migratory-counters"])
def test_checks_off_runs_exactly_as_checks_on(app):
    # A passing checks-on run asserts that every write builds on the
    # latest version, so a disabled checker, which versions a write from
    # the writer's own copy and keeps no table, hands out the same ones.
    for name in PROTOCOL_NAMES:
        assert _directory_run(app, name, False) == _directory_run(app, name, True), name
    for name in ("W-I", "AD", "AD-RXQ", "AD-NONOMIG"):
        assert _bus_run(app, name, False) == _bus_run(app, name, True), name
