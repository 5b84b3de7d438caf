"""Tests for the two-mesh fabric."""

import pytest

from repro.network import Fabric, NetworkMessage, REPLY, REQUEST
from repro.sim import SimulationError, Simulator


def make_fabric(**kwargs):
    sim = Simulator()
    return sim, Fabric(sim, 2, 2, **kwargs)


def test_register_and_deliver():
    sim, fabric = make_fabric()
    got = []
    for node in range(4):
        fabric.register(node, lambda msg, node=node: got.append((node, msg)))
    msg = NetworkMessage(src=0, dst=3, bits=40)
    fabric.send(msg, REQUEST)
    sim.run()
    [(node, delivered)] = got
    assert node == 3 and delivered is msg


def test_duplicate_registration_rejected():
    sim, fabric = make_fabric()
    fabric.register(0, lambda m: None)
    with pytest.raises(SimulationError):
        fabric.register(0, lambda m: None)


def test_unregistered_destination_rejected():
    sim, fabric = make_fabric()
    with pytest.raises(SimulationError):
        fabric.send(NetworkMessage(src=0, dst=1, bits=40), REQUEST)


def test_networks_are_independent_resources():
    sim, fabric = make_fabric()
    arrivals = []
    for node in range(4):
        fabric.register(node, lambda m: arrivals.append((m, sim.now)))
    a = NetworkMessage(src=0, dst=1, bits=168)
    b = NetworkMessage(src=0, dst=1, bits=168)
    fabric.send(a, REQUEST)
    fabric.send(b, REPLY)  # rides the other mesh: no queueing behind a
    sim.run()
    [(first, at_first), (second, at_second)] = arrivals
    assert first is a and second is b
    assert at_first == at_second


def test_unknown_network_rejected():
    sim, fabric = make_fabric()
    fabric.register(1, lambda m: None)
    with pytest.raises(ValueError):
        fabric.send(NetworkMessage(src=0, dst=1, bits=40), "sideband")


def test_unloaded_latency_delegates_per_network():
    _, fabric = make_fabric()
    assert fabric.unloaded_latency(0, 3, 40, REQUEST) == fabric.unloaded_latency(
        0, 3, 40, REPLY
    )
    assert fabric.unloaded_latency(0, 0, 40) < fabric.unloaded_latency(0, 3, 40)
