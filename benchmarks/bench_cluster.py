"""BENCH — cluster ingest scaling and scatter-gather exactness.

Launches real ``repro serve`` shard processes (the same supervisor
``repro cluster serve`` uses), routes a seeded Zipf(1.0) stream through
:class:`~repro.cluster.coordinator.ClusterCoordinator` over the binary
wire, and measures ingest throughput at 1/2/… shards.

Every fleet size ends with the probe the cluster exists for: served
estimates must be **bit-equal** to one offline sketch fed the same
records (§3.2 linearity — the partition never shows).  A mid-stream
probe under the ``wait=True`` read barrier checks the acknowledged
prefix the same way.  Exactness is asserted unconditionally, at every
fleet size, on every host.

``--gate`` additionally asserts near-linear scaling: 2-shard ingest
must reach ≥1.6× the 1-shard rate.  Shards are separate processes, so
the margin needs real cores — on a single-CPU host the scaling bound
is recorded as skipped (the exactness assertions still run).  The
cluster is the repo's one multi-process ingest path.

Emits ``benchmarks/out/BENCH_cluster.json`` so future perf PRs have a
trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_cluster.py            # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_cluster.py --gate     # CI bound
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.fleet import launch_fleet, stop_fleet
from repro.core.countsketch import CountSketch
from repro.service.tables import TableSpec
from repro.streams.zipf import ZipfStreamGenerator

OUT_PATH = Path(__file__).parent / "out" / "BENCH_cluster.json"

DEPTH = 5
WIDTH = 1024
SEED = 0

# Scalar sketch tables make the shard-side apply loop the dominant
# cost, which is exactly what sharding divides; the coordinator's
# encode+route pass is one vectorized sweep and stays constant.
SPEC = TableSpec("bench", kind="sketch", depth=DEPTH, width=WIDTH,
                 seed=SEED)

SCALING_BOUND = 1.6


def _make_stream(n: int) -> list:
    """A Zipf(1.0) item stream — the repo's canonical workload."""
    return list(ZipfStreamGenerator(m=10_000, z=1.0, seed=7).generate(n))


def _offline_reference(stream: list) -> CountSketch:
    sketch = CountSketch(DEPTH, WIDTH, seed=SEED)
    sketch.extend(stream)
    return sketch


def _probes(stream: list) -> list:
    head = list(dict.fromkeys(stream))[:8]
    return head + ["bench-absent-item"]


async def _run_fleet(endpoints: list[tuple[str, int]], stream: list,
                     batch: int) -> float:
    """Ingest the stream through one fleet; return items/s.

    The clock stops at *applied* (each span's final batch waits), so
    throughput includes the sketch work; a mid-stream probe checks the
    acknowledged prefix bit-for-bit.
    """
    cluster = await ClusterCoordinator.connect(endpoints)
    probes = _probes(stream)
    half = len(stream) // 2
    reference_half = _offline_reference(stream[:half])
    reference = _offline_reference(stream)

    async def ingest_span(lo: int, hi: int) -> None:
        # Batches are pipelined (coordinator preps the next batch while
        # the shards apply the last); the final batch waits, so the
        # clock stops at *applied* and the following probe reads
        # exactly the acknowledged prefix.
        starts = list(range(lo, hi, batch))
        for index, chunk_lo in enumerate(starts):
            await cluster.ingest_items(
                SPEC.name, stream[chunk_lo:min(chunk_lo + batch, hi)],
                wait=index == len(starts) - 1)

    start = time.perf_counter()
    await ingest_span(0, half)
    served = await cluster.estimate(SPEC.name, probes)
    assert served == [float(reference_half.estimate(p)) for p in probes], \
        "mid-stream cluster estimates must be bit-equal to offline"
    await ingest_span(half, len(stream))
    rate = len(stream) / (time.perf_counter() - start)

    served = await cluster.estimate(SPEC.name, probes)
    assert served == [float(reference.estimate(p)) for p in probes], \
        "final cluster estimates must be bit-equal to offline"
    await cluster.close()
    return rate


def bench_shards(n_shards: int, stream: list, batch: int,
                 repeats: int) -> float:
    """Best-of ingest rate (items/s) through an ``n_shards`` fleet."""
    best = 0.0
    for __ in range(repeats):
        shards = launch_fleet(n_shards, [SPEC])
        try:
            endpoints = [(s.host, s.port) for s in shards]
            best = max(best,
                       asyncio.run(_run_fleet(endpoints, stream, batch)))
        finally:
            stop_fleet(shards, timeout=15.0)
    return best


def run(n: int, fleet_sizes: list[int], batch: int,
        repeats: int) -> dict:
    """Measure every fleet size; return the BENCH record."""
    stream = _make_stream(n)
    rows = []
    base_rate = None
    for n_shards in fleet_sizes:
        rate = bench_shards(n_shards, stream, batch, repeats)
        if base_rate is None:
            base_rate = rate
        rows.append({
            "n_shards": n_shards,
            "items_per_s": round(rate),
            "speedup_vs_1": round(rate / base_rate, 2),
            "exact": True,  # asserted inside _run_fleet
        })
    return {
        "bench": "cluster",
        "n": n,
        "batch": batch,
        "repeats": repeats,
        "cpus": os.cpu_count(),
        "spec": SPEC.to_dict(),
        "scaling": rows,
    }


def check_gate(record: dict) -> str | None:
    """The scaling bound: 2-shard ingest ≥1.6× the 1-shard rate.

    Needs real cores — shards are separate processes, so on a
    single-CPU host the bound is unreachable by construction and the
    gate reports ``None`` (skipped); the exactness assertions have
    already run unconditionally.
    """
    cpus = record["cpus"] or 1
    if cpus < 2:
        return None
    by_shards = {row["n_shards"]: row for row in record["scaling"]}
    if 2 not in by_shards:
        return "gate FAILED: no 2-shard measurement in the record"
    speedup = by_shards[2]["speedup_vs_1"]
    if speedup < SCALING_BOUND:
        return (
            f"gate FAILED: 2-shard ingest reached only {speedup:.2f}x "
            f"the 1-shard rate ({by_shards[2]['items_per_s']:,}/s vs "
            f"{by_shards[1]['items_per_s']:,}/s); the bound is "
            f"{SCALING_BOUND}x"
        )
    return None


def format_report(record: dict) -> str:
    """Human-readable summary of one BENCH record."""
    lines = [
        "BENCH cluster (n={n}, batch={batch}, best of {repeats}, "
        "{cpus} cpus)".format(**record),
        "  {:<9} {:>13} {:>10} {:>7}".format(
            "shards", "items/s", "vs 1", "exact"),
    ]
    for row in record["scaling"]:
        lines.append(
            "  {n_shards:<9} {items_per_s:>13,} {speedup_vs_1:>9.2f}x "
            "{exact!s:>7}".format(**row)
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the bench and write the BENCH json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=60_000,
                        help="stream length (default 60000)")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4],
                        help="fleet sizes to measure (default 1 2 4)")
    parser.add_argument("--batch", type=int, default=2048,
                        help="records per routed batch (default 2048)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best kept (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick mode: small n, 1+2 shards, one repeat")
    parser.add_argument("--gate", action="store_true",
                        help="fail (exit 1) unless 2-shard ingest reaches "
                             f"{SCALING_BOUND}x the 1-shard rate "
                             "(skipped on single-cpu hosts; exactness is "
                             "always asserted)")
    parser.add_argument("--json", dest="json_path",
                        help=f"BENCH json output path (default {OUT_PATH}; "
                             "a --smoke run writes only to a given path)")
    args = parser.parse_args(argv)

    n = min(args.n, 6_000) if args.smoke else args.n
    fleet_sizes = [1, 2] if args.smoke else args.shards
    repeats = 1 if args.smoke else args.repeats

    record = run(n, fleet_sizes, args.batch, repeats)
    print(format_report(record))

    # A smoke run must not overwrite the committed full-size figures.
    json_path = args.json_path or (None if args.smoke else OUT_PATH)
    if json_path is not None:
        path = Path(json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    if args.gate:
        failure = check_gate(record)
        if failure is not None:
            print(failure, file=sys.stderr)
            return 1
        if (record["cpus"] or 1) < 2:
            print("gate: scaling bound skipped on a single-cpu host "
                  "(exactness asserted)")
        else:
            print("gate ok: 2-shard scaling within bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
