"""Observability: metrics registry, causal tracing, and exporters.

Four small modules:

* :mod:`repro.obs.metrics` — process-local counters / gauges / histograms,
  off by default, cheap enough to leave on (one dict lookup + add per event);
* :mod:`repro.obs.export` — JSON and Prometheus-style serialization plus the
  human-readable report behind ``repro stats``;
* :mod:`repro.obs.causal` — trace contexts, per-operation span trees, and
  critical-path analysis, behind a ``causal`` attribute that defaults to
  ``None`` (see "Causal tracing" in ``docs/observability.md``);
* :mod:`repro.obs.chrome` — Chrome trace-event / Perfetto JSON export of
  collected causal traces (``repro trace`` / ``--trace-out``).

Quick start::

    from repro import obs

    obs.enable()
    ...  # run anything: Swat streams, replication harness, experiments
    print(obs.render_text(obs.metrics_snapshot()))
    obs.write_json(obs.get_registry(), "metrics.json")

Metric names and label conventions are documented in
``docs/observability.md``.
"""

from .causal import (
    CausalTracer,
    CriticalSegment,
    Span,
    SpanTree,
    TraceContext,
    current_causal,
    disable_causal,
    enable_causal,
    format_critical_path,
    record_query_trace,
    record_update_trace,
    render_tree,
)
from .chrome import chrome_trace_ids, to_chrome, validate_chrome, write_chrome
from .export import (
    dumps,
    from_json,
    parse_prometheus,
    render_text,
    to_json,
    to_prometheus,
    write_json,
)
from .metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    disable,
    enable,
    gauge,
    get_registry,
    histogram,
    metrics_snapshot,
    set_registry,
    snapshot_delta,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "enable",
    "disable",
    "get_registry",
    "set_registry",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "snapshot_delta",
    "TraceContext",
    "Span",
    "SpanTree",
    "CriticalSegment",
    "CausalTracer",
    "enable_causal",
    "disable_causal",
    "current_causal",
    "render_tree",
    "format_critical_path",
    "record_query_trace",
    "record_update_trace",
    "to_chrome",
    "write_chrome",
    "validate_chrome",
    "chrome_trace_ids",
    "to_json",
    "from_json",
    "dumps",
    "write_json",
    "to_prometheus",
    "parse_prometheus",
    "render_text",
]
