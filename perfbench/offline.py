"""``offline``: the paper's batch job in one process, no server, metrics off.

Zipf(0.9) over 2**22 scrambled 64-bit ids, so a large share of draws are
first sightings: ``hashing`` and ``core`` do nearly all the work and the
scalar position cache misses often.  Each round of the run does, in turn:

* 21 constructions of both summaries (``setup_s``);
* a ``vectorized`` summary fed through ``update_batch`` in 2048-record
  batches (``ingest_items_per_s``);
* a ``topk`` summary (APPROXTOP, §3.2) fed one item at a time through
  ``update``, then ``top(k)`` (``approxtop_items_per_s``);
* point queries on the built summaries: ``estimate_batch`` of 64 keys
  and ``top(10)``, 1000 of each per round (``estimate_*``, ``topk_*``).

Every round does the same work on fresh summaries, so parent and change
compare like for like.  Rounds repeat until the time is spent, and each
metric is taken from the fastest quarter of the rounds (latency
percentiles per round first; see ``perfbench.common.quiet``).
"""

from __future__ import annotations

import collections
import time

import numpy as np

from perfbench import inputs, replay
from perfbench.common import (
    Tracer,
    cpu_seconds,
    freeze_inputs,
    pin_to_one_cpu,
    quiet,
    rss_mb,
)
from perfbench.workload import MIN_P99_SAMPLES, Outcome
from repro.observability.registry import MetricsRegistry, use_registry
from repro.service.tables import TableSpec

N_KEYS = 1 << 22
ZIPF_Z = 0.9
BATCH = 2048
DEPTH, WIDTH, K = 5, 1024, 10
VECTORIZED = TableSpec("offline_v", kind="vectorized", depth=DEPTH, width=WIDTH)
APPROXTOP = TableSpec("offline_t", kind="topk", depth=DEPTH, width=WIDTH, k=K)
SCALAR = TableSpec("offline_s", kind="sketch", depth=DEPTH, width=WIDTH)
#: Summary constructions timed per round for ``setup_s``, spread over
#: the run like every other figure.
SETUPS = 21
MIN_TURNS = 3


class Inputs:
    def __init__(self, seed: int, smoke: bool) -> None:
        size = 1 << (16 if smoke else 21)
        self.stream = inputs.zipf_stream(seed, "offline", N_KEYS, ZIPF_Z, size)
        self.batches = inputs.batches(self.stream, BATCH)
        self.approxtop_items = self.stream[:1 << (12 if smoke else 16)].tolist()
        picks = inputs.generator(seed, "offline-queries").integers(0, size, (2048, 64))
        self.queries = self.stream[picks]
        self.fingerprint = inputs.fingerprint(self.stream, self.queries)


def _exact_counts(stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ordered = np.sort(stream)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, ordered.size])
    return ordered[starts], counts


def run(seed: int, seconds: float, tracer: Tracer, *, smoke: bool, strict: bool) -> Outcome:
    pin_to_one_cpu()
    data = Inputs(seed, smoke)
    freeze_inputs()
    outcome = Outcome(data.fingerprint)

    keys, counts = _exact_counts(data.stream)
    reference = VECTORIZED.build()
    reference.update_batch(keys.astype(np.uint64), counts)
    scalar = SCALAR.build()
    scalar.update_counts(collections.Counter(data.approxtop_items))
    # The traced APPROXTOP rounds run under a live registry, so the trace
    # shows the position-cache counters of the real pass.
    registry = MetricsRegistry() if tracer.enabled else None
    queries = [row.astype(np.uint64) for row in data.queries]
    vectorized_s: list[float] = []
    approxtop_s: list[float] = []
    estimate_ms: list[list[float]] = []
    topk_ms: list[list[float]] = []
    setups: list[float] = []
    expected_top = None
    # Peak resident set at round boundaries: VmHWM would report the
    # transient peak of input generation, not the program's.
    peak_mb = 0.0
    cpu, wall = cpu_seconds(), time.perf_counter()
    deadline = wall + seconds
    while len(vectorized_s) < MIN_TURNS or time.perf_counter() < deadline:
        for _ in range(SETUPS):
            start = time.perf_counter()
            VECTORIZED.build()
            APPROXTOP.build()
            setups.append(time.perf_counter() - start)

        with tracer.span("offline.vectorized_round"):
            start = time.perf_counter()
            vectorized = VECTORIZED.build()
            for batch in data.batches:
                vectorized.update_batch(batch)
            vectorized_s.append(time.perf_counter() - start)
        outcome.check("vectorized counters equal one aggregated update",
                      np.array_equal(vectorized.counters, reference.counters))
        outcome.attempted += len(data.batches)

        with tracer.span("offline.approxtop_round"), use_registry(registry):
            elapsed, tracker = replay.approxtop_pass(data.approxtop_items, APPROXTOP, K)
        approxtop_s.append(elapsed)
        outcome.check("APPROXTOP sketch equals one aggregated update",
                      np.array_equal(tracker.sketch.counters, scalar.counters))
        expected_top = expected_top or tracker.top(K)
        outcome.check("APPROXTOP rounds agree on top(k)", tracker.top(K) == expected_top)
        outcome.attempted += len(data.approxtop_items)
        peak_mb = max(peak_mb, rss_mb())

        first = len(estimate_ms) * MIN_P99_SAMPLES
        estimate_ms.append([])
        topk_ms.append([])
        for index in range(first, first + MIN_P99_SAMPLES):
            keys = queries[index % len(queries)]
            with tracer.span("offline.estimate_batch", index):
                start = time.perf_counter()
                vectorized.estimate_batch(keys)
                estimate_ms[-1].append((time.perf_counter() - start) * 1e3)
            with tracer.span("offline.top", index):
                start = time.perf_counter()
                top = tracker.top(K)
                topk_ms[-1].append((time.perf_counter() - start) * 1e3)
            if top != expected_top:
                outcome.failed += 1
            outcome.attempted += 2
    outcome.layers["loadgen.cpu_busy_share"] = (cpu_seconds() - cpu) / (time.perf_counter() - wall)
    outcome.e2e["setup_s"] = quiet(setups)
    outcome.e2e["ingest_items_per_s"] = data.stream.size / quiet(vectorized_s)
    outcome.e2e["approxtop_items_per_s"] = len(data.approxtop_items) / quiet(approxtop_s)
    outcome.e2e["peak_rss_mb"] = peak_mb
    if registry is not None:
        counters = registry.snapshot()["counters"]
        hits = counters["countsketch_position_cache_hits_total"]
        outcome.layers["hashing.position_cache_hit_ratio"] = hits / (
            hits + counters["countsketch_position_cache_misses_total"])

    outcome.check("estimate_batch equals per-row medians", all(
        np.array_equal(vectorized.estimate_batch(q),
                       np.median(vectorized.row_values_batch(q).astype(np.float64), axis=0))
        for q in queries[:64]))
    outcome.latencies("estimate", estimate_ms, strict)
    outcome.latencies("topk", topk_ms, strict)
    outcome.replay = lambda: replay.layers(
        tracer, client_batches=data.batches, scalar_items=data.approxtop_items[:1 << 14],
        query_keys=data.queries.tolist(), packed_ingest=False, depth=DEPTH, width=WIDTH)
    return outcome
