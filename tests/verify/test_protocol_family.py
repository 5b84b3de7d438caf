"""Exhaustive model-checking of the MESI / Dragon / Hybrid protocols.

Same harness as test_model_checker, pointed at the three protocols the
pluggable framework added.  Exploration enumerates every message
interleaving of the real controllers, so these runs prove SWMR and — via
the quiescent check — the update protocols' no-stale-read property
(every sharer of a drained machine holds the latest committed version)
over the full bounded space.
"""

import functools

import pytest

from repro.coherence.states import DirState
from repro.core.policy import ProtocolPolicy
from repro.memory.cache import CacheState
from repro.verify import Harness, ProtocolViolation, explore
from repro.verify.checker import _check_quiescent
from repro.verify.harness import BLOCK


@functools.lru_cache(maxsize=None)
def _explored(policy):
    return explore(Harness(2, 2, policy))


def test_mesi_small_exploration_clean():
    result = _explored(ProtocolPolicy("MESI"))
    assert result.states_explored > 500
    assert result.final_states > 0
    # MESI never uses the migratory directory states...
    assert all(shape[0] in ("U", "SR", "DR") for shape in result.state_shapes)
    # ...but does hand out clean-exclusive (the Migrating code is E) lines.
    assert any("M" in shape[1] for shape in result.state_shapes)


def test_mesi_exclusive_only_under_dirty_remote():
    """A clean-exclusive copy only exists while the directory points at
    its owner (DR) — never under U/SR, where another cache could read
    stale data without the owner's knowledge."""
    result = _explored(ProtocolPolicy("MESI"))
    for dir_state, lines in result.state_shapes:
        if "M" in lines:
            assert dir_state == "DR", (dir_state, lines)


def test_dragon_small_exploration_clean():
    result = _explored(ProtocolPolicy("Dragon"))
    assert result.states_explored > 500
    assert result.final_states > 0
    # Write-update keeps sharers alive: both caches shared is reachable,
    # and the migratory machinery never engages.
    assert any(shape == ("SR", ("S", "S")) for shape in result.state_shapes)
    assert all(shape[0] not in ("MD", "MU") for shape in result.state_shapes)


def test_hybrid_fallback_explores_clean():
    """threshold=1 forces the invalidate fallback into the explored
    space: the second unconsumed update takes the Rxq flow instead."""
    eager = _explored(ProtocolPolicy("Hybrid", update_threshold=1))
    pure = _explored(ProtocolPolicy("Dragon"))
    assert eager.final_states > 0
    # The threshold changed the transition relation: some explored step
    # falls back from update to invalidate, which pure Dragon never does.
    assert eager.counters["update_fallbacks"] > 0
    assert pure.counters.get("update_fallbacks", 0) == 0
    # Falling back grants an exclusive copy.
    assert any(
        shape[0] == "DR" and "D" in shape[1] for shape in eager.state_shapes
    )


def test_hybrid_default_threshold_matches_dragon_at_small_bound():
    """Two ops per cache cannot accumulate 8 unconsumed updates, so the
    default hybrid must traverse exactly Dragon's state space."""
    hybrid = _explored(ProtocolPolicy("Hybrid"))
    dragon = _explored(ProtocolPolicy("Dragon"))
    assert hybrid.states_explored == dragon.states_explored
    assert hybrid.state_shapes == dragon.state_shapes


def test_stale_sharer_detected_at_quiescence():
    """The no-stale-read invariant has teeth: a drained SR state with a
    sharer below the latest version must be rejected."""
    harness = Harness(2, 2, ProtocolPolicy("Dragon"))
    entry = harness.directory.entry(BLOCK)
    entry.state, entry.sharers, entry.version = DirState.SHARED_REMOTE, {0, 1}, 2
    harness.caches[0].cache.install(BLOCK, CacheState.SHARED, 2)
    harness.caches[1].cache.install(BLOCK, CacheState.SHARED, 1)
    harness.checker.latest[BLOCK] = 2
    with pytest.raises(ProtocolViolation, match="stale"):
        _check_quiescent(harness)
