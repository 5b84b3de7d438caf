"""Model-checker tests: exhaustive exploration + cross-validation.

These cover the protocol far beyond what timed simulation can sample:
every message interleaving of the simulator's own cache and directory
controllers over one block is enumerated, and the set of reachable
protocol shapes is cross-checked against what the timed machine actually
visits.  The 3-cache explorations take tens of seconds each, so CI's
protocol-matrix job runs them (``repro-sim verify --caches 3``).
"""

import functools

import pytest

from repro.coherence.messages import CoherenceMessage, MsgKind
from repro.coherence.states import DirState
from repro.core.policy import ProtocolPolicy
from repro.memory.cache import CacheState
from repro.verify import Harness, ProtocolViolation, explore
from repro.verify.checker import _check_state
from repro.verify.harness import BLOCK


@functools.lru_cache(maxsize=None)
def _explored(caches, ops, policy):
    return explore(Harness(caches, ops, policy))


def test_wi_small_exploration_clean():
    result = _explored(2, 2, ProtocolPolicy("W-I"))
    assert result.states_explored > 500
    assert result.final_states > 0
    # W-I never reaches migratory directory states.
    assert all(shape[0] in ("U", "SR", "DR") for shape in result.state_shapes)
    # And never creates a Migrating cache line.
    assert all("M" not in shape[1] for shape in result.state_shapes)


def test_ad_small_exploration_clean():
    result = _explored(2, 2, ProtocolPolicy("AD"))
    shapes = result.state_shapes
    # The migratory states are actually reachable...
    assert any(shape[0] == "MD" for shape in shapes)
    assert any("M" in shape[1] for shape in shapes)
    # ...and a Migrating line only exists under a migratory directory
    # state or transiently while home processes the handoff.
    for dir_state, lines in shapes:
        if lines.count("M") + lines.count("D") > 1:
            pytest.fail(f"two writable copies in shape {dir_state}/{lines}")


def test_ad_three_ops_reaches_migratory_uncached():
    """Nomination takes four operations; the eviction that produces
    Migratory-Uncached is the fifth, so it needs the 2-cache 3-op bound,
    where all five directory states are reachable."""
    result = _explored(2, 3, ProtocolPolicy("AD"))
    assert result.final_states > 0
    assert {shape[0] for shape in result.state_shapes} == {
        "U", "SR", "DR", "MD", "MU"
    }


@pytest.mark.parametrize(
    "policy",
    [
        ProtocolPolicy("AD-RXQ"),
        ProtocolPolicy("AD-NONOMIG"),
    ],
    ids=["rxq-revert", "no-nomig"],
)
def test_policy_variants_explore_clean(policy):
    result = _explored(2, 3, policy)
    assert result.final_states > 0


def test_channels_are_fifo():
    """Two updates on one channel reach the real cache controller in the
    order they were sent, one delivery step at a time."""
    harness = Harness(2, 2, ProtocolPolicy("Dragon"))
    line = harness.caches[0].cache.install(BLOCK, CacheState.SHARED, 0)
    home = harness.num_caches
    for version in (1, 2):
        harness.transport.send(CoherenceMessage(
            src=home, dst=0, kind=MsgKind.UPD, block=BLOCK, requester=1,
            version=version, src_is_cache=False,
        ))
    deliveries = [step for step in harness.steps() if step[0] == "deliver"]
    assert len(deliveries) == 1
    harness.take(deliveries[0])
    assert line.version == 1
    harness.take(deliveries[0])
    assert line.version == 2
    assert not any(step[0] == "deliver" and step[1][0] == home
                   for step in harness.steps())


def _planted(owner_version=0, latest=0):
    """A harness whose directory records cache 0 as the Dirty owner."""
    harness = Harness(2, 2)
    entry = harness.directory.entry(BLOCK)
    entry.state, entry.owner = DirState.DIRTY_REMOTE, 0
    harness.caches[0].cache.install(BLOCK, CacheState.DIRTY, owner_version)
    harness.checker.latest[BLOCK] = latest
    return harness


def test_violation_detected_in_corrupted_state():
    """Planting two dirty copies must trip the single-writer check."""
    harness = _planted()
    harness.caches[1].cache.install(BLOCK, CacheState.DIRTY, 0)
    with pytest.raises(ProtocolViolation, match="multiple writable"):
        _check_state(harness)


def test_writable_copy_beside_shared_copy_detected():
    """Full SWMR: a Dirty copy at the latest version beside a Shared one."""
    harness = _planted(owner_version=1, latest=1)
    harness.caches[1].cache.install(BLOCK, CacheState.SHARED, 1)
    with pytest.raises(ProtocolViolation, match="writable beside shared"):
        _check_state(harness)


def test_stale_owner_version_detected():
    harness = _planted(owner_version=1, latest=2)
    with pytest.raises(ProtocolViolation, match="version"):
        _check_state(harness)


def test_timed_simulation_shapes_subset_of_model():
    """Cross-validation: every (directory state, line states) combination
    the timed machine visits must be reachable by exploration.

    Two processors of a 2x2 mesh run random programs of up to three
    operations on ONE block; each final shape must be in the explored
    2-cache, 3-op set.
    """
    import random

    from repro import Machine, MachineConfig
    from repro.cpu.ops import Read, Write

    explored = _explored(2, 3, ProtocolPolicy("AD")).state_shapes

    for seed in range(8):
        rng = random.Random(seed)
        config = MachineConfig(
            mesh_width=2,
            mesh_height=2,
            policy=ProtocolPolicy("AD"),
        )
        machine = Machine(config)

        def program(n, rng=rng):
            ops = []
            for _ in range(rng.randrange(4) if n < 2 else 0):
                ops.append(Write(0) if rng.random() < 0.5 else Read(0))
            return iter(ops)

        machine.run([program(n) for n in range(4)])
        entry = machine.directories[0].entries.get(0)
        if entry is None:
            continue
        lines = []
        for cache in machine.caches[:2]:
            line = cache.cache.lookup(0)
            lines.append(line.state.value if line else "I")
        shape = (entry.state.value, tuple(sorted(lines)))
        assert shape in explored, shape
