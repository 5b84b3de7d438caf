"""Unit tests for FIFO resource reservations."""

import pytest

from repro.sim import InfiniteResource, Resource


def test_uncontended_reservation_starts_immediately():
    r = Resource("r")
    assert r.reserve(10, 5) == 10
    assert r.free_at == 15


def test_back_to_back_reservations_queue():
    r = Resource("r")
    assert r.reserve(0, 4) == 0
    assert r.reserve(0, 4) == 4
    assert r.reserve(2, 4) == 8


def test_gap_between_reservations_is_idle():
    r = Resource("r")
    r.reserve(0, 2)
    assert r.reserve(10, 3) == 10
    assert r.busy_time == 5


def test_zero_duration_reservation_allowed():
    r = Resource("r")
    assert r.reserve(5, 0) == 5
    assert r.free_at == 5


def test_negative_duration_rejected():
    r = Resource("r")
    with pytest.raises(ValueError):
        r.reserve(0, -1)


def test_utilization():
    r = Resource("r")
    r.reserve(0, 25)
    assert r.utilization(100) == pytest.approx(0.25)
    assert r.utilization(0) == 0.0


def test_infinite_resource_never_queues():
    r = InfiniteResource("inf")
    assert r.reserve(0, 100) == 0
    assert r.reserve(0, 100) == 0
    assert r.busy_time == 0
