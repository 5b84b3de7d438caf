"""The protocol registry: one name per protocol, one class per name."""

import pytest

from repro.coherence.messages import MsgKind
from repro.core.policy import PROTOCOL_NAMES, ProtocolPolicy
from repro.experiments.parallel import RunSpec
from repro.experiments.store import spec_key
from repro.protocols import (
    AdaptiveMigratory,
    behavior_for,
    default_policies,
    policy_for,
)


def test_family_is_registered_in_sweep_order():
    assert PROTOCOL_NAMES == (
        "W-I", "AD", "AD-RXQ", "AD-NONOMIG", "MESI", "Dragon", "Hybrid",
    )
    # AD's ablations are variants of AD, not members of the family.
    assert [p.name for p in default_policies()] == [
        "W-I", "AD", "MESI", "Dragon", "Hybrid",
    ]


@pytest.mark.parametrize(
    "spelling, name",
    [
        ("W-I", "W-I"), ("w-i", "W-I"),
        ("AD", "AD"), ("ad", "AD"),
        ("ad-rxq", "AD-RXQ"), ("Ad-NoNomig", "AD-NONOMIG"),
        ("MESI", "MESI"), ("mesi", "MESI"),
        ("Dragon", "Dragon"), ("DRAGON", "Dragon"),
        ("Hybrid", "Hybrid"), ("hybrid", "Hybrid"),
    ],
)
def test_policy_for_takes_any_letter_case(spelling, name):
    assert policy_for(spelling) == ProtocolPolicy(name)


def test_unknown_protocol_raises_with_choices():
    choices = "choose from W-I, AD, AD-RXQ, AD-NONOMIG, MESI, Dragon, Hybrid"
    for name in ("moesi", "WI", "wi", "AD+rxq-revert", ""):
        with pytest.raises(KeyError, match=choices):
            policy_for(name)
    # A policy takes only the canonical spelling: its name is its identity.
    for name in ("moesi", "ad", "Mesi"):
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolPolicy(name)


def test_policy_for_round_trips_through_name():
    """policy_for(n).name == n, and the seven names content-address
    seven different cells: no two spellings share a cache entry."""
    keys = set()
    for name in PROTOCOL_NAMES:
        policy = policy_for(name)
        assert policy.name == name
        assert behavior_for(policy).policy == policy
        keys.add(spec_key(RunSpec.make(
            "migratory-counters", policy, preset="tiny", seed=7, iterations=6,
        )))
    assert len(keys) == len(PROTOCOL_NAMES) == 7


def test_policy_for_ad_ablations():
    rxq = behavior_for(policy_for("AD-RXQ"))
    assert rxq.adaptive and rxq.rxq_reverts_to_ordinary and rxq.nomig_enabled
    nonomig = behavior_for(policy_for("AD-NONOMIG"))
    assert nonomig.adaptive and not nonomig.nomig_enabled
    assert not nonomig.rxq_reverts_to_ordinary
    # Both are AD with one hook flipped.
    assert isinstance(rxq, AdaptiveMigratory)
    assert isinstance(nonomig, AdaptiveMigratory)


@pytest.mark.parametrize("protocol", ["mesi", "dragon", "hybrid"])
@pytest.mark.parametrize(
    "knob",
    [{"adaptive": True}, {"rxq_reverts_to_ordinary": True}, {"nomig_enabled": False}],
)
def test_policy_rejects_adaptive_knobs_on_other_protocols(protocol, knob):
    """MESI with migratory detection would run AD's paths under the name
    "MESI".  The migratory switches are hooks of AD's classes, not policy
    fields, so no policy can be built with them, nor with the legacy
    ``protocol`` field."""
    name = policy_for(protocol).name
    with pytest.raises(TypeError, match=next(iter(knob))):
        ProtocolPolicy(name, **knob)
    with pytest.raises(TypeError, match=next(iter(knob))):
        ProtocolPolicy("AD", **knob)
    with pytest.raises(TypeError, match="protocol"):
        ProtocolPolicy(**{"protocol": protocol})


@pytest.mark.parametrize("name", [n for n in PROTOCOL_NAMES if n != "Hybrid"])
def test_update_threshold_only_on_hybrid(name):
    """Another protocol would ignore the budget but be cached apart."""
    with pytest.raises(ValueError, match="takes no update_threshold"):
        ProtocolPolicy(name, update_threshold=3)
    assert ProtocolPolicy("Hybrid", update_threshold=3).update_threshold == 3


def test_update_threshold_must_be_an_int():
    """A budget read from JSON as a string would fail only in a worker."""
    with pytest.raises(ValueError, match="is no int"):
        ProtocolPolicy("Hybrid", update_threshold="4")


def test_behavior_instances_are_cached_per_policy():
    a = behavior_for(ProtocolPolicy("Dragon"))
    b = behavior_for(policy_for("dragon"))
    assert a is b
    assert behavior_for(ProtocolPolicy("Hybrid")) is not a
    assert behavior_for(ProtocolPolicy("Hybrid", update_threshold=2)) is not (
        behavior_for(ProtocolPolicy("Hybrid"))
    )


#: name -> (store_kind, is_update, grant_exclusive_on_read, clean_exclusive,
#: adaptive, rxq_reverts_to_ordinary, nomig_enabled)
HOOKS = {
    "W-I": (MsgKind.RXQ, False, False, False, False, False, True),
    "AD": (MsgKind.RXQ, False, False, False, True, False, True),
    "AD-RXQ": (MsgKind.RXQ, False, False, False, True, True, True),
    "AD-NONOMIG": (MsgKind.RXQ, False, False, False, True, False, False),
    "MESI": (MsgKind.RXQ, False, True, True, False, False, True),
    "Dragon": (MsgKind.WU, True, False, False, False, False, True),
    "Hybrid": (MsgKind.WU, True, False, False, False, False, True),
}


def test_behavior_hooks_differentiate_the_family():
    assert set(HOOKS) == set(PROTOCOL_NAMES)
    for name, hooks in HOOKS.items():
        behavior = behavior_for(policy_for(name))
        assert (
            behavior.store_kind, behavior.is_update,
            behavior.grant_exclusive_on_read, behavior.clean_exclusive,
            behavior.adaptive, behavior.rxq_reverts_to_ordinary,
            behavior.nomig_enabled,
        ) == hooks, name
    # Dragon never falls back; the hybrid does at its threshold.
    dragon = behavior_for(ProtocolPolicy("Dragon"))
    hybrid = behavior_for(ProtocolPolicy("Hybrid", update_threshold=4))
    assert dragon.use_update(3, 10_000)
    assert hybrid.use_update(3, 3)
    assert not hybrid.use_update(3, 4)
    # Invalidation protocols never decide an update.
    for name in ("W-I", "AD", "MESI"):
        with pytest.raises(NotImplementedError, match=name):
            behavior_for(ProtocolPolicy(name)).use_update(1, 0)
