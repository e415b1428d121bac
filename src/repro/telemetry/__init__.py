"""Unified telemetry: metrics registry, trace spans, exposition, logging.

The substrate every repro layer reports through (PR 7).  See the README
"Observability" section for the metric catalog and usage examples.

Quick tour::

    from repro import telemetry

    jobs = telemetry.registry().counter(
        "repro_scheduler_jobs_submitted_total", "Jobs accepted by submit()")
    jobs.inc()

    timeline = telemetry.Timeline()
    with timeline.span("materialize", hit=False):
        ...
    trace = timeline.to_wire()

    print(telemetry.render_prometheus())
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    family_cache,
    family_total,
    registry,
    set_registry,
    temporary_registry,
)
from .spans import Timeline, phase_durations, validate_phases
from .exposition import render_prometheus, start_metrics_server
from .logs import JsonFormatter, configure_logging, get_logger

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timeline",
    "JsonFormatter",
    "configure_logging",
    "family_cache",
    "family_total",
    "get_logger",
    "phase_durations",
    "registry",
    "render_prometheus",
    "set_registry",
    "start_metrics_server",
    "temporary_registry",
    "validate_phases",
]
