"""The pluggable-protocol registry: names, aliases, policies, behaviors."""

import pytest

from repro.core.policy import ProtocolPolicy
from repro.protocols import (
    available_protocols,
    behavior_for,
    default_policies,
    get_protocol,
    policy_for,
)


def test_family_is_registered_in_sweep_order():
    assert available_protocols() == ("wi", "ad", "mesi", "dragon", "hybrid")


@pytest.mark.parametrize(
    "alias, canonical",
    [
        ("W-I", "wi"), ("WI", "wi"), ("wi", "wi"),
        ("AD", "ad"), ("ad", "ad"),
        ("MESI", "mesi"), ("mesi", "mesi"),
        ("Dragon", "dragon"), ("DRAGON", "dragon"),
        ("Hybrid", "hybrid"),
    ],
)
def test_get_protocol_resolves_aliases(alias, canonical):
    assert get_protocol(alias).name == canonical


def test_unknown_protocol_raises_with_choices():
    with pytest.raises(KeyError, match="available.*dragon"):
        get_protocol("moesi")


def test_policy_for_round_trips_through_kind():
    """policy_for(name).kind must resolve back to the same behavior —
    the property controllers and the result cache both rely on."""
    for name in available_protocols():
        policy = policy_for(name)
        assert get_protocol(policy.kind) is get_protocol(name)
        assert behavior_for(policy).name == get_protocol(name).name


def test_policy_for_ad_ablations():
    rxq = policy_for("AD-RXQ")
    assert rxq.adaptive and rxq.rxq_reverts_to_ordinary
    nonomig = policy_for("AD-NONOMIG")
    assert nonomig.adaptive and not nonomig.nomig_enabled
    # Both stay in the AD behavior family.
    assert behavior_for(rxq).name == behavior_for(nonomig).name == "ad"


@pytest.mark.parametrize("protocol", ["mesi", "dragon", "hybrid"])
@pytest.mark.parametrize(
    "knob",
    [{"adaptive": True}, {"rxq_reverts_to_ordinary": True}, {"nomig_enabled": False}],
)
def test_policy_rejects_adaptive_knobs_on_other_protocols(protocol, knob):
    """MESI with migratory detection would run AD's paths under the name
    "MESI"; such a policy is refused rather than mislabelled."""
    with pytest.raises(ValueError, match=protocol):
        ProtocolPolicy(protocol=protocol, **knob)
    ProtocolPolicy(protocol="wi", **knob)  # the W-I/AD pair takes them


def test_behavior_instances_are_cached_per_policy():
    a = behavior_for(ProtocolPolicy.dragon())
    b = behavior_for(ProtocolPolicy.dragon())
    assert a is b
    assert behavior_for(ProtocolPolicy.hybrid()) is not a


def test_behavior_hooks_differentiate_the_family():
    from repro.coherence.messages import MsgKind

    wi, ad, mesi, dragon, hybrid = map(behavior_for, default_policies())
    # Invalidate protocols store via Rxq; update protocols via Wu.
    assert wi.store_kind is MsgKind.RXQ and not wi.is_update
    assert dragon.store_kind is MsgKind.WU and dragon.is_update
    assert hybrid.is_update
    # Only MESI grants clean-exclusive copies.
    assert mesi.grant_exclusive_on_read and mesi.clean_exclusive
    assert not ad.grant_exclusive_on_read
    # Dragon never falls back; the hybrid does past its threshold.
    assert dragon.use_update(3, 10_000)
    assert hybrid.use_update(3, hybrid.policy.update_threshold - 1)
    assert not hybrid.use_update(3, hybrid.policy.update_threshold)
