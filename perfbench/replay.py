"""Per-layer replays: a workload's own inputs fed through each layer's
public functions, one layer at a time, outside the timed workload.

Each figure is a median over a few repeats, in nanoseconds per key or
record unless the name says otherwise.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

import numpy as np

from perfbench.common import Tracer, median
from repro.cluster.routing import partition_keys
from repro.hashing.vectorized import encode_keys
from repro.observability.registry import MetricsRegistry, use_registry
from repro.service.protocol import (
    encode_wire_key,
    pack_binary_ingest,
    pack_frame,
    pack_key,
    unpack_frame,
)
from repro.service.tables import TableSpec

_REPEATS = 3


def _per_unit_ns(tracer: Tracer, name: str, units: int, work: Callable[[], Any]) -> float:
    """Median over repeats of ``work()``'s wall time per unit, in ns."""
    samples = []
    for _ in range(_REPEATS):
        with tracer.span(f"replay.{name}"):
            start = time.perf_counter_ns()
            work()
            samples.append((time.perf_counter_ns() - start) / units)
    return median(samples)


def approxtop_pass(items: Sequence[int], spec: TableSpec, k: int) -> tuple[float, Any]:
    """Feed ``items`` one at a time to a fresh ``topk`` summary, then read
    ``top(k)``; returns (seconds, summary)."""
    summary = spec.build()
    update = summary.update
    start = time.perf_counter()
    for item in items:
        update(item)
    summary.top(k)
    return time.perf_counter() - start, summary


def layers(
    tracer: Tracer,
    *,
    client_batches: Sequence[Any],
    scalar_items: Sequence[int],
    query_keys: Sequence[Sequence[int]],
    packed_ingest: bool,
    depth: int,
    width: int,
) -> dict[str, float]:
    """Replay one workload's inputs through every layer it can reach.

    Args:
        client_batches: ingest batches in the form the workload hands
            them to the program (ndarrays offline, lists of ints from a
            client).
        scalar_items: the stream prefix the scalar/APPROXTOP replays use.
        query_keys: the workload's estimate requests (64 keys each).
        packed_ingest: whether the workload's ingest frames carry packed
            keys (``topk`` tables) rather than raw 64-bit images.
    """
    out: dict[str, float] = {}
    n_records = sum(len(batch) for batch in client_batches)
    keys_u64 = [encode_keys(batch) for batch in client_batches]

    out["hashing.encode_ns_per_key"] = _per_unit_ns(
        tracer, "hashing.encode_keys", n_records,
        lambda: [encode_keys(batch) for batch in client_batches])

    vectorized = TableSpec("replay", kind="vectorized", depth=depth, width=width)

    def update_all() -> None:
        summary = vectorized.build()
        for keys in keys_u64:
            summary.update_batch(keys)

    out["core.update_batch_ns_per_key"] = _per_unit_ns(
        tracer, "core.update_batch", n_records, update_all)

    sketch = TableSpec("replay", kind="sketch", depth=depth, width=width)
    topk = TableSpec("replay", kind="topk", depth=depth, width=width, k=10)

    def scalar_pass() -> None:
        summary = sketch.build()
        for item in scalar_items:
            summary.update(item)

    scalar_ns = _per_unit_ns(tracer, "core.scalar_update", len(scalar_items), scalar_pass)
    out["core.scalar_update_ns_per_item"] = scalar_ns
    plain = []
    for _ in range(_REPEATS):
        with tracer.span("replay.core.approxtop"):
            seconds, tracker = approxtop_pass(scalar_items, topk, 10)
        plain.append(seconds * 1e9 / len(scalar_items))
    approxtop_ns = median(plain)
    out["core.heap_ns_per_item"] = approxtop_ns - scalar_ns

    observed = []
    for _ in range(_REPEATS):
        registry = MetricsRegistry()
        with tracer.span("replay.observability.approxtop"), use_registry(registry):
            seconds, _ = approxtop_pass(scalar_items, topk, 10)
        observed.append(seconds * 1e9 / len(scalar_items))
    counters = registry.snapshot()["counters"]
    out["observability.approxtop_overhead_pct"] = (median(observed) / approxtop_ns - 1) * 100
    out["core.heap_admission_ratio"] = (
        counters["topk_heap_admissions_total"] / counters["topk_updates_total"])
    hits = counters["countsketch_position_cache_hits_total"]
    out["hashing.position_cache_hit_ratio"] = (
        hits / (hits + counters["countsketch_position_cache_misses_total"]))

    queries = [list(keys) for keys in query_keys[:128]]
    n_keys = sum(len(keys) for keys in queries)
    loaded = vectorized.build()
    for keys in keys_u64:
        loaded.update_batch(keys)
    out["core.estimate_ns_per_key.vectorized"] = _per_unit_ns(
        tracer, "core.estimate.vectorized", n_keys,
        lambda: [loaded.estimate(key) for keys in queries for key in keys])
    out["core.estimate_batch_ns_per_key"] = _per_unit_ns(
        tracer, "core.estimate_batch", n_keys,
        lambda: [loaded.estimate_batch(keys) for keys in queries])
    scalar_sketch = tracker.sketch
    out["core.estimate_ns_per_key.scalar"] = _per_unit_ns(
        tracer, "core.row_values", n_keys,
        lambda: [scalar_sketch.row_values(key) for keys in queries for key in keys])

    out.update(_protocol(tracer, client_batches, keys_u64, queries, packed_ingest))
    out["cluster.route_ns_per_record"] = _per_unit_ns(
        tracer, "cluster.partition_keys", n_records,
        lambda: [partition_keys(encode_keys(batch), 2) for batch in client_batches])
    return out


def _protocol(
    tracer: Tracer,
    client_batches: Sequence[Any],
    keys_u64: Sequence[np.ndarray],
    queries: Sequence[Sequence[int]],
    packed: bool,
) -> dict[str, float]:
    n_records = sum(len(batch) for batch in client_batches)
    weights = [np.ones(len(batch), dtype=np.int64) for batch in client_batches]

    def pack_all() -> list[bytes]:
        if packed:
            return [
                pack_binary_ingest("replay", index, [pack_key(int(item)) for item in batch],
                                   weights[index], raw=False)
                for index, batch in enumerate(client_batches)]
        return [pack_binary_ingest("replay", index, keys, weights[index], raw=True)
                for index, keys in enumerate(keys_u64)]

    frames = pack_all()
    out = {
        "protocol.ingest_bytes_per_record": sum(len(frame) for frame in frames) / n_records,
        "protocol.ingest_pack_ns_per_record": _per_unit_ns(
            tracer, "protocol.pack_binary_ingest", n_records, pack_all),
        "protocol.ingest_unpack_ns_per_record": _per_unit_ns(
            tracer, "protocol.unpack_frame", n_records,
            lambda: [unpack_frame(frame) for frame in frames]),
    }

    def codec() -> None:
        for index, keys in enumerate(queries):
            request = {"op": "estimate", "id": index, "table": "replay",
                       "keys": [encode_wire_key(key) for key in keys]}
            unpack_frame(pack_frame(request))
            response = {"ok": True, "id": index, "estimates": [float(key % 997) for key in keys]}
            unpack_frame(pack_frame(response))

    out["protocol.query_codec_us"] = _per_unit_ns(
        tracer, "protocol.query_codec", len(queries), codec) / 1e3
    return out
