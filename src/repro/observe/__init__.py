"""Observability substrate: structured per-query tracing, a process-wide
metrics registry, and the ``system.*`` virtual tables that expose both
from SQL.

The package is a leaf — everything else (engine, planner, execution,
storage, server, CLI) imports *it*, never the reverse — so any subsystem
can report into the same trace tree and registry without creating import
cycles.
"""

from repro.observe.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.trace import (
    Span,
    Trace,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "Tracer",
]
