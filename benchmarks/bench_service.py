"""BENCH — service ingest throughput and query latency (repro.service).

Measures, over a seeded Zipf(1.0) stream:

* **ingest** — items/s through the service for a sweep of batch sizes:
  in-process (frame codec, no kernel) and TCP loopback over the binary
  wire with pipelined acks (``AsyncServiceClient.ingest_many``).  The
  offline :class:`~repro.core.vectorized.VectorizedCountSketch`
  batch-update loop is reported alongside as the no-server ceiling, so
  the service overhead is visible as a percentage.
* **query latency** — per-request ``estimate`` latency (p50/p99 ms)
  from several concurrent clients while a background producer keeps
  ingesting over the binary wire, i.e. reads racing writes through the
  read barrier.

Every ingest pass ends with a correctness probe: the served estimates
for a handful of head items must equal an offline sketch built from the
same records.  The TCP pass additionally probes *mid-stream* — after
the first half of the stream, served estimates must be bit-equal to an
offline sketch fed exactly that prefix — so the bench doubles as an
exactness smoke for read-your-acknowledged-writes.

``--gate`` asserts the regression bound from ROADMAP item 1: binary TCP
ingest at the largest batch size must reach at least 50% of the offline
ceiling.

Emits a BENCH json (``benchmarks/out/BENCH_service.json``) so future
perf PRs have a trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_service.py --gate     # CI bound
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.vectorized import VectorizedCountSketch
from repro.service.client import AsyncServiceClient, OverloadedError
from repro.service.server import SketchServer
from repro.service.tables import TableSpec
from repro.streams.zipf import ZipfStreamGenerator

OUT_PATH = Path(__file__).parent / "out" / "BENCH_service.json"

DEPTH = 5
WIDTH = 1024
SEED = 0

SPEC = TableSpec("bench", kind="vectorized", depth=DEPTH, width=WIDTH,
                 seed=SEED)

PROBE_ITEMS = [0, 1, 2, 7, 42]


def _make_stream(n: int) -> list:
    """A Zipf(1.0) item stream — the repo's canonical workload."""
    return list(ZipfStreamGenerator(m=10_000, z=1.0, seed=7).generate(n))


def _chunks(stream: list, batch: int) -> list[list]:
    return [stream[i:i + batch] for i in range(0, len(stream), batch)]


def _offline_reference(stream: list) -> VectorizedCountSketch:
    sketch = VectorizedCountSketch(DEPTH, WIDTH, seed=SEED)
    if stream:
        sketch.update_batch(stream)
    return sketch


async def _send(client: AsyncServiceClient, table: str, records: list,
                *, wait: bool = False) -> None:
    """Ingest one batch, yielding to the applier on backpressure."""
    while True:
        try:
            await client.ingest(table, records, wait=wait)
            return
        except OverloadedError:
            await asyncio.sleep(0)


async def _ingest_stream(client: AsyncServiceClient, chunks: list[list]
                         ) -> None:
    for chunk in chunks[:-1]:
        await _send(client, SPEC.name, [(item, 1) for item in chunk])
    # The final batch waits, so the clock stops at *applied*, not
    # merely acknowledged — throughput includes the sketch work.
    await _send(client, SPEC.name,
                [(item, 1) for item in chunks[-1]], wait=True)


async def _assert_probe(client: AsyncServiceClient,
                        reference: VectorizedCountSketch) -> None:
    served = await client.estimate(SPEC.name, PROBE_ITEMS)
    expected = [reference.estimate(item) for item in PROBE_ITEMS]
    assert served == expected, "served estimates must match offline"


def bench_ingest_in_process(stream: list, batch: int, repeats: int,
                            reference: VectorizedCountSketch) -> float:
    """Best-of in-process ingest rate (items/s) at one batch size."""

    async def once() -> float:
        server = SketchServer([SPEC])
        client = AsyncServiceClient.in_process(server)
        chunks = _chunks(stream, batch)
        start = time.perf_counter()
        await _ingest_stream(client, chunks)
        rate = len(stream) / (time.perf_counter() - start)
        await _assert_probe(client, reference)
        await server.stop()
        return rate

    return max(asyncio.run(once()) for __ in range(repeats))


def bench_ingest_tcp_binary(stream: list, batch: int, repeats: int,
                            reference: VectorizedCountSketch) -> float:
    """Best-of TCP ingest rate over the binary wire (items/s).

    Pipelined (``ingest_many``), with a mid-stream exactness probe:
    after the first half of the stream is acknowledged and applied, the
    served estimates must be bit-equal to an offline sketch fed exactly
    that prefix.  The probe's round-trip is inside the timed window —
    one request against hundreds, noise next to the guarantee it buys.
    """
    half = len(stream) // 2
    reference_half = _offline_reference(stream[:half])

    async def once() -> float:
        server = SketchServer([SPEC])
        host, port = await server.start("127.0.0.1", 0)
        client = await AsyncServiceClient.connect(host, port)
        first = [[(item, 1) for item in chunk]
                 for chunk in _chunks(stream[:half], batch)]
        second = [[(item, 1) for item in chunk]
                  for chunk in _chunks(stream[half:], batch)]
        start = time.perf_counter()
        await client.ingest_many(SPEC.name, first, wait=True)
        await _assert_probe(client, reference_half)
        await client.ingest_many(SPEC.name, second, wait=True)
        rate = len(stream) / (time.perf_counter() - start)
        await _assert_probe(client, reference)
        await client.close()
        await server.stop()
        return rate

    return max(asyncio.run(once()) for __ in range(repeats))


def bench_offline(stream: list, batch: int, repeats: int) -> float:
    """The no-server ceiling: direct vectorized batch updates."""

    def once() -> float:
        sketch = VectorizedCountSketch(DEPTH, WIDTH, seed=SEED)
        chunks = _chunks(stream, batch)
        ones = np.ones(batch, dtype=np.int64)
        start = time.perf_counter()
        for chunk in chunks:
            sketch.update_batch(chunk, ones[:len(chunk)])
        return len(stream) / (time.perf_counter() - start)

    return max(once() for __ in range(repeats))


def bench_query_latency(stream: list, queries: int, concurrency: int,
                        batch: int) -> dict:
    """p50/p99 estimate latency (ms) under a concurrent producer."""

    async def go() -> dict:
        server = SketchServer([SPEC])
        host, port = await server.start("127.0.0.1", 0)
        seed_client = await AsyncServiceClient.connect(host, port)
        await _send(seed_client, SPEC.name,
                    [(item, 1) for item in stream], wait=True)

        producing = True

        async def producer() -> None:
            chunks = _chunks(stream, batch)
            while producing:
                for chunk in chunks:
                    if not producing:
                        break
                    await _send(seed_client, SPEC.name,
                                [(item, 1) for item in chunk])
                    await asyncio.sleep(0)

        async def worker(count: int) -> list[float]:
            client = await AsyncServiceClient.connect(host, port)
            latencies = []
            for i in range(count):
                start = time.perf_counter()
                await client.estimate(
                    SPEC.name, [PROBE_ITEMS[i % len(PROBE_ITEMS)]]
                )
                latencies.append((time.perf_counter() - start) * 1e3)
            await client.close()
            return latencies

        producer_task = asyncio.create_task(producer())
        per_worker = max(1, queries // concurrency)
        results = await asyncio.gather(
            *(worker(per_worker) for __ in range(concurrency))
        )
        producing = False
        await producer_task
        await seed_client.close()
        await server.stop()

        latencies = sorted(value for chunk in results for value in chunk)
        return {
            "queries": len(latencies),
            "concurrency": concurrency,
            "p50_ms": round(_percentile(latencies, 0.50), 3),
            "p99_ms": round(_percentile(latencies, 0.99), 3),
        }

    return asyncio.run(go())


def _percentile(ordered: list[float], q: float) -> float:
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run(n: int, batches: list[int], repeats: int, queries: int,
        concurrency: int) -> dict:
    """Measure every batch-size cell; return the BENCH record."""
    stream = _make_stream(n)
    reference = _offline_reference(stream)
    ingest = []
    for batch in batches:
        offline = bench_offline(stream, batch, repeats)
        in_process = bench_ingest_in_process(stream, batch, repeats,
                                             reference)
        tcp_binary = bench_ingest_tcp_binary(stream, batch, repeats,
                                             reference)
        ingest.append({
            "batch": batch,
            "offline_items_per_s": round(offline),
            "in_process_items_per_s": round(in_process),
            "tcp_binary_items_per_s": round(tcp_binary),
            "in_process_overhead_pct": round(
                100.0 * (offline - in_process) / offline, 1
            ),
            "tcp_binary_overhead_pct": round(
                100.0 * (offline - tcp_binary) / offline, 1
            ),
            "tcp_binary_of_offline_pct": round(
                100.0 * tcp_binary / offline, 1
            ),
        })
    latency = bench_query_latency(stream, queries, concurrency,
                                  batch=batches[-1])
    return {
        "bench": "service",
        "n": n,
        "repeats": repeats,
        "spec": SPEC.to_dict(),
        "ingest": ingest,
        "query_latency": latency,
    }


def check_gate(record: dict) -> str | None:
    """The ROADMAP item 1 bound: binary TCP ingest at the largest batch
    must reach ≥50% of the offline ceiling.  Returns the failure
    message, or ``None`` when the gate holds."""
    row = record["ingest"][-1]
    achieved = row["tcp_binary_of_offline_pct"]
    if achieved < 50.0:
        return (
            f"gate FAILED: binary TCP ingest at batch {row['batch']} "
            f"reached {achieved:.1f}% of the offline ceiling "
            f"({row['tcp_binary_items_per_s']:,}/s vs "
            f"{row['offline_items_per_s']:,}/s); the bound is 50%"
        )
    return None


def format_report(record: dict) -> str:
    """Human-readable summary of one BENCH record."""
    lines = [
        "BENCH service (n={n}, best of {repeats})".format(**record),
        "  {:<7} {:>13} {:>13} {:>13} {:>8}".format(
            "batch", "offline/s", "in-proc/s", "tcp-bin/s", "bin/off"
        ),
    ]
    for row in record["ingest"]:
        lines.append(
            "  {batch:<7} {offline_items_per_s:>13,} "
            "{in_process_items_per_s:>13,} {tcp_binary_items_per_s:>13,} "
            "{tcp_binary_of_offline_pct:>7.1f}%".format(**row)
        )
    latency = record["query_latency"]
    lines.append(
        "  estimate latency under load ({queries} queries, "
        "{concurrency} clients): p50 {p50_ms}ms | p99 {p99_ms}ms".format(
            **latency
        )
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the bench and write the BENCH json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200_000,
                        help="stream length (default 200000)")
    parser.add_argument("--batches", type=int, nargs="+",
                        default=[64, 512, 2048],
                        help="ingest batch sizes (default 64 512 2048)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best kept (default 3)")
    parser.add_argument("--queries", type=int, default=2000,
                        help="latency sample size (default 2000)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="concurrent query clients (default 4)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick mode: small n, one batch, fewer repeats")
    parser.add_argument("--gate", action="store_true",
                        help="fail (exit 1) unless binary TCP ingest at "
                             "the largest batch reaches 50%% of the "
                             "offline ceiling")
    parser.add_argument("--json", dest="json_path",
                        help=f"BENCH json output path (default {OUT_PATH}; "
                             "a --smoke run writes only to a given path)")
    args = parser.parse_args(argv)

    n = min(args.n, 10_000) if args.smoke else args.n
    batches = args.batches[-1:] if args.smoke else args.batches
    repeats = 1 if args.smoke else args.repeats
    queries = min(args.queries, 200) if args.smoke else args.queries
    concurrency = min(args.concurrency, 2) if args.smoke else args.concurrency

    record = run(n, batches, repeats, queries, concurrency)
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
        print("gate ok: binary TCP ingest within bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
