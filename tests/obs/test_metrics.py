"""The stdlib metrics layer: instruments, registry, exposition round-trip.

The exposition check deliberately goes *through* :func:`parse_exposition`
so the renderer and the parser validate each other — a malformed line on
either side fails the round-trip.
"""

import math
import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    MAX_LABEL_SETS,
    MetricsRegistry,
    parse_exposition,
    sample_count,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_decrease(registry):
    c = registry.counter("jobs_total", "Jobs.")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_labeled_counter_children_are_cached(registry):
    c = registry.counter("http_total", "Requests.", labelnames=("method", "route"))
    c.labels("GET", "/stats").inc()
    c.labels(method="GET", route="/stats").inc()
    c.labels("POST", "/jobs").inc(3)
    assert c.labels("GET", "/stats") is c.labels("GET", "/stats")
    assert c.labels("GET", "/stats").value == 2
    assert c.labels("POST", "/jobs").value == 3
    # The parent of a labeled metric cannot be incremented directly.
    with pytest.raises(ValueError):
        c.inc()
    # Wrong arity / unknown names are errors, not silent children.
    with pytest.raises(ValueError):
        c.labels("GET")
    with pytest.raises(ValueError):
        c.labels(method="GET", path="/stats")


def test_gauge_reads_its_callback_at_scrape_time(registry):
    g = registry.gauge("depth", "Queue depth.")
    assert g.value == 0
    backing = {"n": 7}
    g.set_function(lambda: backing["n"])
    assert g.value == 7
    backing["n"] = 9
    assert g.value == 9
    # A raising callback degrades to NaN rather than breaking the scrape.
    g.set_function(lambda: 1 / 0)
    assert math.isnan(g.value)


def test_counter_bound_to_a_callback_renders_it_and_refuses_inc(registry):
    c = registry.counter("kept_elsewhere_total", "A count its owner keeps.")
    owner = {"n": 3}
    c.set_function(lambda: owner["n"])
    assert c.value == 3
    owner["n"] = 5
    assert c.value == 5
    assert parse_exposition(registry.exposition())["kept_elsewhere_total"].value() == 5
    # One count per event: the owner's integer is the only write path.
    with pytest.raises(ValueError, match="callback"):
        c.inc()
    assert c.value == 5


def test_labeled_counter_rejects_set_function(registry):
    c = registry.counter("by_route_total", "Requests.", labelnames=("route",))
    with pytest.raises(ValueError, match="has labels"):
        c.set_function(lambda: 1)


def test_histogram_buckets_are_cumulative(registry):
    h = registry.histogram("lat", "Latency.", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 5.0, 100.0):
        h.observe(v)
    lat = parse_exposition(registry.exposition())["lat"]
    buckets = {
        labels["le"]: value
        for name, labels, value in lat.samples if name == "lat_bucket"
    }
    assert buckets == {"0.1": 1, "1": 1, "10": 2, "+Inf": 3}
    assert lat.value(sample_name="lat_count") == 3
    assert lat.value(sample_name="lat_sum") == pytest.approx(105.05)


# ----------------------------------------------------------------------
# Label-cardinality cap
# ----------------------------------------------------------------------
def test_label_cardinality_overflow_collapses_to_one_child(registry):
    c = registry.counter("wild", "Unbounded labels.", labelnames=("key",))
    for i in range(MAX_LABEL_SETS):
        c.labels(str(i)).inc()
    assert c.dropped_label_sets == 0
    # Past the cap every new combination lands on the shared overflow child.
    first_over = c.labels("too-many-1")
    second_over = c.labels("too-many-2")
    assert first_over is second_over
    first_over.inc()
    second_over.inc()
    assert c.dropped_label_sets == 2
    families = parse_exposition(registry.exposition())
    assert families["wild"].value({"key": obs_metrics.OVERFLOW_LABEL_VALUE}) == 2


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_get_or_create_is_idempotent(registry):
    a = registry.counter("n", "first declaration")
    b = registry.counter("n", "second declaration ignored")
    assert a is b
    with pytest.raises(ValueError):
        registry.gauge("n")  # same name, different type
    with pytest.raises(ValueError):
        registry.counter("n", labelnames=("x",))  # different labels


def test_invalid_names_rejected(registry):
    with pytest.raises(ValueError):
        registry.counter("1bad")
    with pytest.raises(ValueError):
        registry.counter("ok", labelnames=("le-gal?",))
    with pytest.raises(ValueError):
        registry.histogram("h", labelnames=("le",))


def test_concurrent_label_creation_is_safe(registry):
    c = registry.counter("race", "", labelnames=("who",))

    def spin(tag):
        for _ in range(200):
            c.labels(tag).inc()

    threads = [threading.Thread(target=spin, args=(str(i % 4),)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(c.labels(str(i)).value for i in range(4)) == 8 * 200


# ----------------------------------------------------------------------
# Exposition round-trip
# ----------------------------------------------------------------------
def test_exposition_round_trip(registry):
    registry.counter("req_total", "Requests served.", labelnames=("route",))
    registry.get("req_total").labels("/jobs").inc(4)
    registry.get("req_total").labels('/with"quote\\and\nnewline').inc()
    registry.gauge("temp", "Current value.").set_function(lambda: 2.5)
    h = registry.histogram("secs", "Durations.", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(50)

    text = registry.exposition()
    families = parse_exposition(text)

    assert families["req_total"].type == "counter"
    assert families["req_total"].help == "Requests served."
    assert families["req_total"].value({"route": "/jobs"}) == 4
    assert families["req_total"].value({"route": '/with"quote\\and\nnewline'}) == 1

    assert families["temp"].type == "gauge"
    assert families["temp"].value() == 2.5

    secs = families["secs"]
    assert secs.type == "histogram"
    assert secs.value({"le": "0.1"}, sample_name="secs_bucket") == 1
    assert secs.value({"le": "1"}, sample_name="secs_bucket") == 2
    assert secs.value({"le": "+Inf"}, sample_name="secs_bucket") == 3
    assert secs.value(sample_name="secs_sum") == pytest.approx(50.55)
    assert secs.value(sample_name="secs_count") == 3

    # 2 counter series + 1 gauge + (3 buckets + sum + count) = 8.
    assert sample_count(families) == 8


def test_parse_exposition_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exposition("this is not exposition\n")
    with pytest.raises(ValueError):
        parse_exposition('x{bad labels} 1\n')
    with pytest.raises(ValueError):
        parse_exposition("# TYPE x sideways\n")


def test_module_level_helpers_use_global_registry():
    name = "repro_test_global_counter_total"
    try:
        obs_metrics.counter(name, "Test series.").inc()
        families = parse_exposition(obs_metrics.REGISTRY.exposition())
        assert families[name].value() >= 1
    finally:
        obs_metrics.REGISTRY._metrics.pop(name, None)


def test_value_formatting_handles_special_floats(registry):
    registry.gauge("inf_g").set_function(lambda: math.inf)
    registry.gauge("ninf_g").set_function(lambda: -math.inf)
    families = parse_exposition(registry.exposition())
    assert families["inf_g"].value() == math.inf
    assert families["ninf_g"].value() == -math.inf
