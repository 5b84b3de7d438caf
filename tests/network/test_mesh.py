"""Unit tests for the wormhole mesh model."""

import pytest

from repro.network import NetworkMessage
from repro.network.mesh import Mesh
from repro.sim import Simulator


def make_mesh(**kwargs):
    sim = Simulator()
    mesh = Mesh(sim, 4, 4, **kwargs)
    return sim, mesh


def test_coords_roundtrip():
    _, mesh = make_mesh()
    for node in range(16):
        x, y = mesh.coords(node)
        assert mesh.node_at(x, y) == node


def test_xy_route_goes_x_first():
    _, mesh = make_mesh()
    # node 0 = (0,0), node 15 = (3,3)
    path = mesh.route(0, 15)
    assert path == [(0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15)]


def test_route_to_self_is_empty():
    _, mesh = make_mesh()
    assert mesh.route(5, 5) == []


def test_hop_count_is_manhattan():
    _, mesh = make_mesh()
    assert mesh.hop_count(0, 15) == 6
    assert mesh.hop_count(0, 1) == 1
    assert mesh.hop_count(5, 5) == 0


def test_mean_distance_4x4():
    _, mesh = make_mesh()
    # The paper (Section 4.2) quotes an average distance of 2.67 links
    # between two arbitrary distinct nodes of a 4x4 mesh: 8/3 exactly.
    assert mesh.mean_distance() == pytest.approx(8 / 3)


def test_unloaded_latency_formula():
    # interface_delay is paid per end: injection + ejection.
    _, mesh = make_mesh(fall_through=3, interface_delay=2)
    # 40-bit message -> ceil(40/16) = 3 flits; 1 hop.
    assert mesh.unloaded_latency(0, 1, 40) == 1 * 3 + 3 + 2 * 2
    # 168-bit message -> ceil(168/16) = 11 flits; 6 hops.
    assert mesh.unloaded_latency(0, 15, 168) == 6 * 3 + 11 + 2 * 2
    # The machine default (1 per end) reproduces the paper's 2-pclock total.
    _, default_mesh = make_mesh(fall_through=3)
    assert default_mesh.unloaded_latency(0, 1, 40) == 1 * 3 + 3 + 2


def test_delivery_time_matches_unloaded_latency():
    sim, mesh = make_mesh()
    msg = NetworkMessage(src=0, dst=15, bits=168)
    arrival = []
    mesh.send(msg, lambda m: arrival.append(sim.now))
    sim.run()
    assert arrival == [mesh.unloaded_latency(0, 15, 168)]


def test_self_message_pays_interface_only():
    # No mesh traversal, but both interface crossings (inject + eject).
    sim, mesh = make_mesh(interface_delay=2)
    arrival = []
    mesh.send(NetworkMessage(src=3, dst=3, bits=168), lambda m: arrival.append(sim.now))
    sim.run()
    assert arrival == [4]
    assert mesh.unloaded_latency(3, 3, 168) == 4


def test_route_cache_returns_same_path():
    # The send path's one cache is _chain's tuple of link Resources.
    _, mesh = make_mesh()
    first = mesh._chain(0, 15)
    assert mesh._chain(0, 15) is first  # cached, not recomputed
    hops = [(0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15)]
    assert first == tuple(mesh.links[hop] for hop in hops)
    assert mesh.route(0, 15) == hops
    with pytest.raises(ValueError):
        mesh._chain(0, 99)  # invalid pairs are still rejected, not cached
    assert (0, 99) not in mesh._chain_cache


def test_contention_delays_second_message():
    sim, mesh = make_mesh()
    arrivals = {}
    # Two messages over the same single link 0->1 at the same time: the
    # second one queues behind the first's flits.
    a = NetworkMessage(src=0, dst=1, bits=168)  # 11 flits
    b = NetworkMessage(src=0, dst=1, bits=168)
    mesh.send(a, lambda m: arrivals.setdefault("a", sim.now))
    mesh.send(b, lambda m: arrivals.setdefault("b", sim.now))
    sim.run()
    assert arrivals["b"] == arrivals["a"] + 11  # one link occupancy apart


def test_disjoint_paths_do_not_interfere():
    sim, mesh = make_mesh()
    arrivals = {}
    a = NetworkMessage(src=0, dst=1, bits=168)
    b = NetworkMessage(src=8, dst=9, bits=168)
    mesh.send(a, lambda m: arrivals.setdefault("a", sim.now))
    mesh.send(b, lambda m: arrivals.setdefault("b", sim.now))
    sim.run()
    assert arrivals["a"] == arrivals["b"]


def test_infinite_bandwidth_mesh_has_no_queueing():
    sim, mesh = make_mesh(infinite_bandwidth=True)
    arrivals = []
    for _ in range(4):
        mesh.send(NetworkMessage(src=0, dst=1, bits=168), lambda m: arrivals.append(sim.now))
    sim.run()
    assert len(set(arrivals)) == 1


def test_bad_node_raises():
    _, mesh = make_mesh()
    with pytest.raises(ValueError):
        mesh.route(0, 99)
