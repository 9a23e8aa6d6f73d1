"""``repro.obs`` — zero-dependency structured observability.

Every case study the paper reports is a *loop* (AutoChip feedback
iterations, the Fig. 5 SLT loop, HLS repair rounds, the Fig. 6 agent
pipeline), and the ROADMAP's production-scale north star cannot be
operated — or its perf PRs trusted — without visibility into where those
loops spend their time.  This package provides:

* :class:`~repro.obs.trace.Tracer` — nested spans with monotonic timing
  and per-span attributes, streamed to a pluggable sink;
* :class:`~repro.obs.metrics.Counter` / :class:`~repro.obs.metrics.Histogram`
  — process-wide named metrics (compile-cache hits, simulator events,
  evaluator timeouts);
* sinks — in-memory (tests/reports), JSONL file (``REPRO_TRACE_FILE``),
  and the no-op default;
* :mod:`repro.obs.report` — renders a run summary table from any of the
  above (imported lazily: ``from repro.obs import report``).

Tracing is **off by default** (``REPRO_TRACE=0``): the disabled tracer
hands out one shared no-op span and emits nothing, so all experiment
statistics stay byte-identical to an uninstrumented build.  Set
``REPRO_TRACE=1`` to trace into memory, plus ``REPRO_TRACE_FILE=path``
to stream a JSONL trace.
"""

from __future__ import annotations

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      get_metrics, reset_metrics)
from .sinks import InMemorySink, JsonlSink, NullSink, Sink, read_jsonl
from .trace import (NOOP_SPAN, Span, TRACE_ENV, TRACE_FILE_ENV, Tracer,
                    get_tracer, install_tracer, reset_tracer,
                    tracing_enabled)

__all__ = [
    "Counter", "Gauge", "Histogram", "InMemorySink", "JsonlSink",
    "MetricsRegistry", "NOOP_SPAN", "NullSink", "Sink", "Span", "TRACE_ENV",
    "TRACE_FILE_ENV", "Tracer", "enabled", "flush_metrics", "get_metrics",
    "get_tracer", "install_tracer", "read_jsonl", "reset_metrics",
    "reset_tracer", "span", "tracing_enabled",
]


def enabled() -> bool:
    """Whether the process-wide tracer is recording."""
    return get_tracer().enabled


def span(name: str, **attrs: object):
    """Open a span on the process-wide tracer (context manager)."""
    return get_tracer().span(name, **attrs)


def flush_metrics(tracer: Tracer | None = None) -> dict | None:
    """Emit one metrics snapshot record to the tracer's sink.

    The snapshot merges the process-wide registry (simulator/evaluator
    counters and histograms) with the compile cache's process-wide layer
    statistics surfaced as gauges, so a single JSONL trace carries both
    span timings and cache effectiveness.  Returns the record, or ``None``
    when tracing is disabled.
    """
    tracer = tracer or get_tracer()
    if not tracer.enabled:
        return None
    snapshot = get_metrics().snapshot()
    # Lazy import: avoid an import cycle with repro.hdl.
    from ..hdl.compile import cache_gauges
    # The cache gauges count every compile-cache instance in the process
    # (bench harnesses install private caches), so traced runs always
    # report the activity.
    gauges = {**snapshot.pop("gauges", {}), **cache_gauges()}
    record = {"type": "metrics", "gauges": gauges, **snapshot}
    tracer.emit(record)
    return record
