"""Shared measurement machinery: spans, percentiles, /proc readers, scrapes.

Everything here measures the program from outside.  Spans are recorded
by the benchmark around its own calls into the program's public
functions; program metrics are read only as counter values and
histogram ``count``/``sum`` pairs, the part of the export every
histogram implementation keeps.
"""

from __future__ import annotations

import contextvars
import gc
import itertools
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchmarkFailure(Exception):
    """A correctness or no-silent-drop check failed; the run has no numbers."""


class Tracer:
    """In-memory span recorder (name, start, end, parent, request id).

    Spans of one request share a request id; the parent is the span open
    in the calling context (``contextvars``, so asyncio tasks and threads
    each see their own).  Nothing is written until :meth:`write`.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None, object]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None)

    @contextmanager
    def span(self, name: str, request_id: object = None) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append((span_id, name, start, end, parent, request_id))

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [(end - start) / 1e6 for _, n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (parents before children not
        guaranteed; join on ``id``/``parent``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": request_id,
                }) + "\n")


class NullTracer(Tracer):
    """Tracing off: ``span`` costs one generator frame and records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, request_id: object = None) -> Iterator[None]:
        yield


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise BenchmarkFailure("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    if not values:
        raise BenchmarkFailure("median of an empty sample")
    return float(statistics.median(values))


def quiet(times: list[float]) -> float:
    """The lower quartile of per-round times (or per-round latency
    percentiles): how long a round takes when the host leaves it alone.

    Other tenants of a shared host only ever add time, in bursts of a few
    seconds that spoil some rounds of a run and not others; the median of
    the rounds moves with how many were spoiled, the fastest quarter does
    not.  A change to the program moves every round, the fastest quarter
    with them.
    """
    if not times:
        raise BenchmarkFailure("quartile of an empty sample")
    if len(times) == 1:
        return float(times[0])
    return float(statistics.quantiles(times, n=4, method="inclusive")[0])


def cpu_seconds() -> float:
    """utime + stime of this process, from ``/proc/self/stat``."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def rss_mb() -> float:
    """``VmRSS`` (current resident set) of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkFailure("no VmRSS in /proc/self/status")


def pin_to_one_cpu() -> None:
    """Keep a single-process workload on one CPU.  The vCPUs of a shared
    VM can differ in speed by a quarter; unpinned, each run measures
    whichever one the scheduler picked."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


def freeze_inputs() -> None:
    """Move everything allocated so far, the run's pre-built inputs, out
    of the cyclic collector's reach.  The inputs live for the whole run;
    left in place, every full collection would rescan them and pause the
    load generator (and in-process servers) for work that a real client,
    holding one batch at a time, never causes."""
    gc.collect()
    gc.freeze()


class Scrape:
    """One parsed ``metrics`` export (JSON format) of one or more servers.

    Several exports add up series by series: counters and histogram
    ``count``/``sum`` are sums, so a fleet reads as one server.  A series
    that no export carries reads as ``None`` (absent), never as zero.
    """

    def __init__(self, bodies: list[str]) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, tuple[float, float]] = {}
        for body in bodies:
            snapshot = json.loads(body)
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, summary in snapshot.get("histograms", {}).items():
                count, total = self.histograms.get(name, (0, 0.0))
                self.histograms[name] = (count + summary["count"], total + summary["sum"])

    def counter(self, name: str) -> float | None:
        return self.counters.get(name)

    def histogram(self, name: str) -> tuple[float, float] | None:
        return self.histograms.get(name)


def delta(after: float | None, before: float | None) -> float | None:
    """``after - before`` for series that may be absent."""
    if after is None:
        return None
    return after - (before or 0)


def ratio(numerator: float | None, denominator: float | None) -> float | None:
    if numerator is None or not denominator:
        return None
    return numerator / denominator
