"""Metric primitives and the (default no-op) global registry.

Three metric kinds cover the instrumentation the sketch layers need:

* :class:`Counter` — a monotonically increasing total (updates applied,
  cache hits, heap evictions).
* :class:`Gauge` — a point-in-time value (queue depth, live cache
  size).
* :class:`Histogram` — a streaming value distribution (checkpoint
  seconds, request latency) summarized by count/sum/min/max and p50/p95/p99
  quantiles over a fixed-size reservoir sample, so memory stays bounded
  no matter how many observations arrive.

The module-level registry defaults to :class:`NullRegistry`, whose metric
handles are shared do-nothing singletons.  Instrumented classes capture
their handles **once at construction time**, so the per-event cost of
disabled metrics is a single attribute load and an ``is not None`` test —
near zero on the hot paths (`benchmarks/bench_overhead.py` measures it).
Enable collection by installing a real registry *before* building the
objects to observe::

    from repro.observability import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        sketch = CountSketch(5, 1024)   # captures live handles
        sketch.extend(stream)
    print(registry.snapshot())
"""

from __future__ import annotations

import functools
import random
import time
import zlib
from contextlib import contextmanager
from collections.abc import Callable, Iterator
from typing import Any

#: Default reservoir size for histograms; large enough that p99 over a
#: run's observations is stable, small enough to be allocation-trivial.
DEFAULT_RESERVOIR_SIZE = 1024


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self._value += amount

    @property
    def value(self) -> int:
        """The current total."""
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self._value -= amount

    @property
    def value(self) -> float:
        """The current value."""
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """A streaming distribution with bounded-memory quantile estimates.

    Exact ``count``/``sum``/``min``/``max`` are maintained for every
    observation; quantiles are computed over a classic reservoir sample
    (Vitter's Algorithm R) of at most ``reservoir_size`` values, so a
    histogram never grows with the stream.  The reservoir RNG is seeded
    from a CRC-32 of the metric name, keeping snapshots deterministic for
    a fixed observation sequence in every process, whatever its
    ``PYTHONHASHSEED`` (the repo-wide reproducibility rule).
    """

    __slots__ = (
        "name", "_count", "_sum", "_min", "_max", "_reservoir",
        "_capacity", "_rng",
    )

    def __init__(self, name: str, reservoir_size: int = DEFAULT_RESERVOIR_SIZE) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be at least 1")
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._reservoir: list[float] = []
        self._capacity = reservoir_size
        # ``hash(str)`` is salted per process; CRC-32 of the name is not.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self._capacity:
                self._reservoir[slot] = value

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 ≤ q ≤ 1) from the reservoir.

        Uses linear interpolation between reservoir order statistics;
        returns ``nan`` when no observations have been recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if not self._reservoir:
            return float("nan")
        ordered = sorted(self._reservoir)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 summary of the reservoir."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self._count}, "
            f"sum={self._sum})"
        )


class _TimedBlock:
    """Context manager recording one wall-clock duration per ``with``."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> _TimedBlock:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)

    def __call__(self, func: Callable[..., Any]) -> Callable[..., Any]:
        histogram = self._histogram

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                histogram.observe(time.perf_counter() - start)

        return wrapper


class _NullCounter:
    """Shared do-nothing counter handed out by :class:`NullRegistry`."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        """Discard the increment."""


class _NullGauge:
    """Shared do-nothing gauge handed out by :class:`NullRegistry`."""

    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1.0) -> None:
        """Discard the decrement."""


class _NullHistogram:
    """Shared do-nothing histogram handed out by :class:`NullRegistry`."""

    __slots__ = ()
    name = "null"
    count = 0
    sum = 0.0
    min = float("inf")
    max = float("-inf")

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def quantile(self, q: float) -> float:
        """Always ``nan`` — nothing is recorded."""
        return float("nan")

    def percentiles(self) -> dict[str, float]:
        """Empty-distribution percentiles (all ``nan``)."""
        nan = float("nan")
        return {"p50": nan, "p95": nan, "p99": nan}


class _NullTimedBlock:
    """Do-nothing stand-in for :class:`_TimedBlock`."""

    __slots__ = ()

    def __enter__(self) -> _NullTimedBlock:
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def __call__(self, func: Callable[..., Any]) -> Callable[..., Any]:
        return func


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMED = _NullTimedBlock()


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metric handles are created on first request and shared thereafter, so
    ``registry.counter("x")`` is stable across call sites — the idiom is
    to fetch handles once (at construction time) and hold them.

    Args:
        reservoir_size: reservoir capacity for histograms created by this
            registry (see :class:`Histogram`).
    """

    #: Real registries collect; the null registry overrides this to False.
    enabled = True

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR_SIZE) -> None:
        self._reservoir_size = reservoir_size
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        handle = self._counters.get(name)
        if handle is None:
            handle = self._counters[name] = Counter(name)
        return handle

    def gauge(self, name: str) -> Gauge:
        """Return (creating if needed) the gauge called ``name``."""
        handle = self._gauges.get(name)
        if handle is None:
            handle = self._gauges[name] = Gauge(name)
        return handle

    def histogram(self, name: str) -> Histogram:
        """Return (creating if needed) the histogram called ``name``."""
        handle = self._histograms.get(name)
        if handle is None:
            handle = self._histograms[name] = Histogram(
                name, reservoir_size=self._reservoir_size
            )
        return handle

    def timed(self, name: str) -> _TimedBlock:
        """A context manager / decorator timing into histogram ``name``.

        As a context manager each ``with`` block records one duration
        (seconds); as a decorator every call of the wrapped function does.
        """
        return _TimedBlock(self.histogram(name))

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict summary of every metric (JSON-compatible).

        Histograms are summarized (count/sum/min/max/p50/p95/p99), not
        dumped — the reservoir is an implementation detail.
        """
        histograms = {}
        for name, histogram in sorted(self._histograms.items()):
            summary = {
                "count": histogram.count,
                "sum": histogram.sum,
                "min": histogram.min if histogram.count else None,
                "max": histogram.max if histogram.count else None,
            }
            if histogram.count:
                summary.update(histogram.percentiles())
            histograms[name] = summary
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": histograms,
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


class NullRegistry(MetricsRegistry):
    """The default registry: every handle is a shared no-op singleton.

    Uninstrumented runs therefore pay (almost) nothing: instrumented
    classes see ``enabled == False`` at construction time and skip metric
    work entirely on their hot paths.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(reservoir_size=1)

    def counter(self, name: str) -> Counter:
        """The shared no-op counter, whatever the name."""
        return _NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The shared no-op gauge, whatever the name."""
        return _NULL_GAUGE  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """The shared no-op histogram, whatever the name."""
        return _NULL_HISTOGRAM  # type: ignore[return-value]

    def timed(self, name: str) -> _TimedBlock:
        """A no-op context manager / identity decorator."""
        return _NULL_TIMED  # type: ignore[return-value]

    def snapshot(self) -> dict[str, Any]:
        """Always empty."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __repr__(self) -> str:
        return "NullRegistry()"


_NULL_REGISTRY = NullRegistry()
_registry: MetricsRegistry = _NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide registry (the no-op :class:`NullRegistry` unless
    :func:`set_registry` / :func:`use_registry` installed a real one)."""
    return _registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` globally (``None`` restores the no-op default).

    Returns the previously installed registry so callers can restore it.
    Objects capture their metric handles at construction, so install the
    registry *before* building the sketches/trackers to observe.
    """
    global _registry
    previous = _registry
    _registry = _NULL_REGISTRY if registry is None else registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` as the global registry."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)


def metrics_enabled() -> bool:
    """True when a collecting (non-null) registry is installed."""
    return _registry.enabled


def timed(name: str) -> _TimedBlock:
    """Module-level convenience: ``get_registry().timed(name)``.

    Usable as a decorator (binds the *current* registry at decoration
    time) or a context manager::

        with timed("merge_seconds"):
            merged.merge(shard)
    """
    return _registry.timed(name)
