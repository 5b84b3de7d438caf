"""Tests of the Section 5.2 message-cost arithmetic."""

from collections import Counter

import pytest

from repro.analysis import (
    AD_EPISODE,
    WI_EPISODE,
    ad_episode_cost,
    breakdown_table,
    episode_cost,
    migratory_traffic_reduction,
    wi_episode_cost,
)
from repro.coherence.messages import MsgKind
from repro.experiments import compare_protocols
from repro.machine.config import MachineConfig
from repro.protocols import policy_for
from repro.verify.harness import Harness


def episode(harness, node):
    """Kinds of the messages ``node``'s read, then write, delivers."""
    return tuple(
        msg.kind for action in ("read", "write")
        for msg in harness.perform(action, node)
    )


def test_wi_episode_is_704_bits():
    cost = wi_episode_cost()
    assert cost.total_bits == 704
    assert cost.message_count == 8
    assert cost.data_replies == 3  # Rp, Sw, Rxp


def test_ad_episode_is_328_bits():
    cost = ad_episode_cost()
    assert cost.total_bits == 328
    assert cost.message_count == 5
    assert cost.data_replies == 1  # Mack
    assert cost.requests == 4  # Rr, Mr, DT, MIack (as the paper counts)


def test_wi_controllers_send_the_wi_episode():
    """The episode the closed form counts is what the controllers send:
    node 1 reads, then writes, a block node 0 holds dirty."""
    harness = Harness(num_caches=4, policy=policy_for("W-I"))
    harness.perform("write", 0)
    kinds = episode(harness, 1)
    assert Counter(kinds) == Counter(WI_EPISODE)
    assert episode_cost(kinds).total_bits == 704


def test_ad_controllers_send_the_ad_episode():
    """After the nomination by nodes 0 and 1, node 2's read-modify-write
    is exactly Figure 3's messages: its write sends nothing."""
    harness = Harness(num_caches=4, policy=policy_for("AD"))
    episode(harness, 0)
    episode(harness, 1)
    assert harness.counters.get("nominations") == 1
    read = harness.perform("read", 2)
    assert harness.perform("write", 2) == []
    kinds = tuple(msg.kind for msg in read)
    assert kinds == AD_EPISODE
    assert episode_cost(kinds).total_bits == 328


def test_reduction_is_53_percent():
    assert migratory_traffic_reduction() == pytest.approx(0.534, abs=0.001)


def test_custom_episode():
    cost = episode_cost((MsgKind.RR, MsgKind.RP))
    assert cost.total_bits == 40 + 168
    assert cost.requests == 1
    assert cost.data_replies == 1


def test_breakdown_table_covers_both_protocols():
    rows = breakdown_table()
    protocols = {row["protocol"] for row in rows}
    assert protocols == {"W-I", "AD"}
    assert sum(r["bits"] for r in rows if r["protocol"] == "W-I") == 704
    assert sum(r["bits"] for r in rows if r["protocol"] == "AD") == 328


def test_empty_episode_costs_nothing():
    cost = episode_cost(())
    assert cost.total_bits == 0
    assert cost.message_count == 0
    assert cost.requests == 0
    assert cost.data_replies == 0


def test_header_only_episode_has_no_data_replies():
    cost = episode_cost((MsgKind.RR, MsgKind.RXQ, MsgKind.IACK))
    assert cost.data_replies == 0
    assert cost.requests == 3
    assert cost.total_bits == 3 * 40


def test_episode_bits_for_empty_and_zero_line():
    from repro.analysis.message_cost import episode_bits_for_line

    assert episode_bits_for_line((), 16) == 0
    # A zero-byte line degenerates to headers only.
    assert episode_bits_for_line((MsgKind.RP,), 0) == 40


def test_line_size_generalization():
    from repro.analysis.message_cost import (
        episode_bits_for_line,
        traffic_reduction_for_line,
    )

    assert episode_bits_for_line.__doc__  # documented public helper
    assert traffic_reduction_for_line(16) == pytest.approx(0.534, abs=0.001)
    assert traffic_reduction_for_line(32) == pytest.approx(1 - 456 / 1088, abs=0.001)
    values = [traffic_reduction_for_line(size) for size in (16, 32, 64, 128, 1024)]
    assert values == sorted(values)  # grows with line size
    assert values[-1] < 2 / 3  # asymptote: AD moves 1 line vs W-I's 3


def test_simulated_pure_migratory_matches_model():
    comparison = compare_protocols(
        "migratory-counters", check_coherence=False, iterations=40,
        num_counters=8,
    )
    # The measured reduction approaches the per-episode model (cold misses
    # and lock-grant ordering add a few points of slack).
    assert comparison.traffic_reduction == pytest.approx(
        migratory_traffic_reduction(), abs=0.08
    )


def test_simulated_line_size_sweep_tracks_closed_form():
    from repro.analysis.message_cost import traffic_reduction_for_line

    measured = {}
    for line in (16, 32, 64):
        comparison = compare_protocols(
            "migratory-counters",
            config=MachineConfig.dash_default(line_size=line),
            check_coherence=False,
            iterations=30,
            num_counters=8,
            record_lines=1,
            line_size=line,
        )
        measured[line] = comparison.traffic_reduction
        # Simulation tracks the closed form within a few points (cold
        # misses and lock handoffs add non-episode traffic).
        assert measured[line] == pytest.approx(
            traffic_reduction_for_line(line), abs=0.10
        )
    # The reduction grows with the line size, as the model predicts.
    values = list(measured.values())
    assert values == sorted(values)
