"""Zero-overhead-by-default observability for the sketch layers.

The package provides a :class:`MetricsRegistry` of counters, gauges, and
streaming histograms (p50/p95/p99 via a fixed-size reservoir), a
``timed()`` context-manager/decorator, and JSON / Prometheus-text
exporters.  The process-wide registry defaults to a no-op
:class:`NullRegistry`; the instrumented hot paths (``CountSketch`` and
friends, ``TopKTracker``, ``CheckpointManager``) capture their metric
handles at construction time, so uninstrumented runs pay a single
``is not None`` test per event — ``benchmarks/bench_overhead.py`` keeps
that honest.

Typical use::

    from repro.observability import MetricsRegistry, use_registry, to_json

    registry = MetricsRegistry()
    with use_registry(registry):
        tracker = TopKTracker(10, depth=5, width=512)
        for item in stream:
            tracker.update(item)
    print(to_json(registry))

or from the CLI: ``repro topk --input q.txt --metrics-out m.json``.
"""

from repro.observability.export import (
    to_json,
    to_prometheus,
    write_json,
    write_prometheus,
)
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    metrics_enabled,
    set_registry,
    timed,
    use_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "metrics_enabled",
    "set_registry",
    "timed",
    "to_json",
    "to_prometheus",
    "use_registry",
    "write_json",
    "write_prometheus",
]
