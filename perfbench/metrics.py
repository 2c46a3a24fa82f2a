"""What the benchmark measures, and what each per-layer number should move.

``BENCHMARK.json`` declares names, units and bounds for the harness that
compares runs; this module declares the same names and units from the
code's side, plus, for every per-layer metric, the end-to-end metric
and workload it is expected to move.  ``run.py --self-check`` fails when
the two disagree or a mapping names an undeclared metric or workload.
"""

from __future__ import annotations

WORKLOADS = ("offline", "cluster_query")

END_TO_END = {
    "setup_s": "s",
    "ingest_items_per_s": "items/s",
    "approxtop_items_per_s": "items/s",
    "estimate_p50_ms": "ms",
    "topk_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

_ING = "ingest_items_per_s"
_TOP = "approxtop_items_per_s"
_EST = "estimate_p50_ms"
_TOPK = "topk_p50_ms"
_OFF, _CLU = WORKLOADS

#: per-layer name -> (unit, [(end-to-end metric it should move, workload)])
PER_LAYER: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "hashing.encode_ns_per_key": ("ns", [(_ING, _OFF), (_ING, _CLU)]),
    "hashing.position_cache_hit_ratio": ("ratio", [(_TOP, _OFF), (_ING, _CLU)]),
    "core.update_batch_ns_per_key": ("ns", [(_ING, _OFF)]),
    "core.scalar_update_ns_per_item": ("ns", [(_TOP, _OFF), (_ING, _CLU)]),
    "core.heap_ns_per_item": ("ns", [(_TOP, _OFF)]),
    "core.heap_admission_ratio": ("ratio", [(_TOP, _OFF)]),
    "core.estimate_ns_per_key.vectorized": ("ns", [(_EST, _OFF)]),
    "core.estimate_batch_ns_per_key": ("ns", [(_EST, _OFF)]),
    "core.estimate_ns_per_key.scalar": ("ns", [(_EST, _CLU)]),
    "observability.approxtop_overhead_pct": (
        "%", [(_EST, _CLU), (_TOPK, _CLU), (_ING, _CLU), (_TOP, _OFF)]),
    "protocol.ingest_bytes_per_record": ("bytes", [(_ING, _CLU)]),
    "protocol.ingest_pack_ns_per_record": ("ns", [(_ING, _CLU)]),
    "protocol.ingest_unpack_ns_per_record": ("ns", [(_ING, _CLU)]),
    "protocol.query_codec_us": ("us", [(_EST, _CLU)]),
    "client.ping_rtt_ms_p50": ("ms", [(_EST, _CLU)]),
    "loadgen.cpu_busy_share": ("ratio", [(_ING, _OFF), (_ING, _CLU)]),
    "server.request_ms_mean": ("ms", [(_EST, _CLU)]),
    "tables.apply_busy_share": ("ratio", [(_ING, _CLU)]),
    "tables.apply_ns_per_record": ("ns", [(_ING, _CLU)]),
    "tables.records_per_apply": ("count", [(_ING, _CLU)]),
    "tables.backlog_records_p50": ("count", [(_EST, _CLU)]),
    "tables.backlog_records_max": ("count", [(_EST, _CLU)]),
    "tables.barrier_wait_ms_p50": ("ms", [(_EST, _CLU)]),
    "tables.barrier_wait_ms_p99": ("ms", [(_EST, _CLU)]),
    "tables.overload_refusals": ("count", [("ok_ops_ratio", _CLU), (_ING, _CLU)]),
    "cluster.route_ns_per_record": ("ns", [(_ING, _CLU)]),
    "cluster.scatter_ms_mean": ("ms", [(_EST, _CLU), (_TOPK, _CLU)]),
    "cluster.gather_ms_mean": ("ms", [(_EST, _CLU), (_TOPK, _CLU)]),
    "cluster.topk_candidates": ("count", [(_TOPK, _CLU)]),
    "cluster.shard_skew": ("ratio", [(_ING, _CLU)]),
    # The latency tail, unbounded: on a shared host it mostly counts how
    # often other tenants preempt the run (see ``Outcome.latencies``).
    "loadgen.estimate_p90_ms": ("ms", [(_EST, _OFF), (_EST, _CLU)]),
    "loadgen.estimate_p99_ms": ("ms", [(_EST, _OFF), (_EST, _CLU)]),
    "loadgen.topk_p90_ms": ("ms", [(_TOPK, _OFF), (_TOPK, _CLU)]),
    "loadgen.topk_p99_ms": ("ms", [(_TOPK, _OFF), (_TOPK, _CLU)]),
}

# Tracing overhead: traced minus untraced value of each end-to-end metric,
# as a percentage of the untraced value.  It judges the run's validity.
for _name in END_TO_END:
    PER_LAYER[f"tracing.overhead_pct.{_name}"] = ("%", [(_name, w) for w in WORKLOADS])
