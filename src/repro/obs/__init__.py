"""Observability: transaction tracing, latency attribution, time-series.

``repro.obs`` is the layer that answers *where did the miss cycles go*:

* :class:`~repro.obs.tracer.TransactionTracer` — per-transaction spans
  with per-segment cycle attribution and state-transition logs;
* :class:`~repro.obs.timeseries.MetricsSampler` — periodic occupancy /
  queue-depth snapshots into a bounded ring buffer;
* :mod:`repro.obs.export` — Chrome-trace (Perfetto) and JSON/CSV export;
* :mod:`repro.obs.metrics` — the serve daemon's metrics
  (counter/gauge/histogram with labels, Prometheus text exposition at
  ``GET /metrics``) and ``run_many``'s requeue count; a count that
  ``/stats`` also reports is kept once by its owner and read at scrape
  time.

Simulation tracing is opt-in: a machine built without ``trace=True`` and
without a metrics interval runs byte-identically to one predating this
package.  Fleet metrics never touch the simulation core.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".span": ("OPS", "SEGMENTS", "Span"),
    ".tracer": ("TransactionTracer", "render_latency_summary"),
    ".timeseries": ("MetricsRing", "MetricsSampler"),
    ".export": (
        "chrome_trace", "spans_to_json", "validate_trace_events",
        "write_chrome_trace",
    ),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
        "parse_exposition", "sample_count",
    ),
})
