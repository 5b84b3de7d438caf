"""Shared helpers for timed-protocol tests."""

import pytest

from repro import Machine, MachineConfig, ProtocolPolicy
from repro.consistency import SEQUENTIAL_CONSISTENCY


def build_machine(adaptive=False, **overrides):
    policy = ProtocolPolicy("AD" if adaptive else "W-I")
    if "policy" in overrides:
        policy = overrides.pop("policy")
    config = MachineConfig.dash_default(policy=policy, **overrides)
    return Machine(config)


def run_ops(machine, per_node_ops):
    """Run a dict {node: [ops]} (idle elsewhere); returns the RunResult."""
    programs = []
    for node in range(machine.config.num_nodes):
        programs.append(iter(per_node_ops.get(node, [])))
    return machine.run(programs)


def dir_entry(machine, addr):
    """Directory entry for the block containing byte address ``addr``."""
    block = addr // machine.config.line_size
    home = machine.placement.home_of_block(block)
    return machine.directories[home].entries.get(block)


def cache_line(machine, node, addr):
    block = addr // machine.config.line_size
    return machine.caches[node].cache.lookup(block)


@pytest.fixture
def helpers():
    class Helpers:
        build = staticmethod(build_machine)
        run = staticmethod(run_ops)
        entry = staticmethod(dir_entry)
        line = staticmethod(cache_line)

    return Helpers
