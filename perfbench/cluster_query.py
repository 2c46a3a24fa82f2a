"""``cluster_query``: read-heavy serving through ``repro.cluster``.

``ClusterCoordinator.in_process`` fronts 2 shard ``SketchServer``s in
this process: the frame codec still runs on every call, and on 2 shared
cores subprocess shards would mostly measure the scheduler.  The shards
hold one ``topk`` table (depth 5, width 1024) over Zipf(1.1) on 2**12
keys, so the scalar position cache hits almost always.

The run is a sequence of rounds.  In each:

1. 21 fleets with their table are set up and stopped (``setup_s``);
2. on a fresh fleet the table is pre-loaded through a coordinator in
   2048-record batches (``approxtop_items_per_s``);
3. two closed-loop callers run, each with its own coordinator (its own
   connection to every shard):

   * one sends 32-record ingest batches and waits until they are applied;
   * one sends 4000 queries, ``estimate`` of 64 keys and ``topk(10)`` in
     a 3:1 mix; the round ends when they are answered;

4. the round's answers are checked against one offline summary.

Every round does the same work, and each metric is taken from the
fastest quarter of the rounds (latency percentiles per round first; see
``perfbench.common.quiet``).  The scalar core, the per-item counters
of the server-side tables, the scatter/gather and the read barrier
dominate; bulk protocol work does little.
"""

from __future__ import annotations

import asyncio
import collections
import time

from perfbench import inputs, replay
from perfbench.common import (
    Scrape,
    Tracer,
    cpu_seconds,
    delta,
    freeze_inputs,
    percentile,
    pin_to_one_cpu,
    quiet,
    ratio,
    rss_mb,
)
from perfbench.workload import Outcome
from repro.cluster import ClusterCoordinator
from repro.observability.registry import MetricsRegistry, use_registry
from repro.service import ServiceError, SketchServer, TableSpec

N_KEYS = 1 << 12
ZIPF_Z = 1.1
SHARDS = 2
DEPTH, WIDTH, K = 5, 1024, 10
TABLE = TableSpec("hot", kind="topk", depth=DEPTH, width=WIDTH, k=K)
SERIES = f"service_table_{TABLE.name}"
PRELOAD_BATCH = 2048
INGEST_BATCH = 32
#: Fleet set-ups timed per round for ``setup_s``, spread over the run
#: like every other figure.
SETUPS = 21
#: Queries per round: 3000 estimates and 1000 topk, so each round's p99
#: of either rests on at least 1000 samples.
QUERIES = 4000
MIN_ROUNDS = 3


class Inputs:
    def __init__(self, seed: int, smoke: bool) -> None:
        self.preload = inputs.zipf_stream(seed, "cluster-preload", N_KEYS, ZIPF_Z,
                                          1 << (12 if smoke else 16))
        self.stream = inputs.zipf_stream(seed, "cluster-ingest", N_KEYS, ZIPF_Z,
                                         1 << (14 if smoke else 18))
        picks = inputs.generator(seed, "cluster-queries").integers(0, self.stream.size, (4096, 64))
        self.queries = self.stream[picks]
        self.fingerprint = inputs.fingerprint(self.preload, self.stream, self.queries)
        self.preload_batches = [[(key, 1) for key in batch.tolist()]
                                for batch in inputs.batches(self.preload, PRELOAD_BATCH)]
        self.preload_counts = collections.Counter(self.preload.tolist())
        self.batches = [[(key, 1) for key in batch.tolist()]
                        for batch in inputs.batches(self.stream, INGEST_BATCH)]
        self.query_lists = self.queries.tolist()


async def _fleet(registry: MetricsRegistry | None) -> tuple[list[SketchServer], ClusterCoordinator]:
    servers = [SketchServer() for _ in range(SHARDS)]
    with use_registry(registry):
        coordinator = ClusterCoordinator.in_process(servers)
    await coordinator.create_table(TABLE)
    return servers, coordinator


async def _preload(fleet: list[SketchServer], data: Inputs,
                   tracer: Tracer) -> tuple[float, ClusterCoordinator]:
    """Load the pre-load stream through a fresh coordinator; returns
    (seconds taken, that coordinator)."""
    loader = ClusterCoordinator.in_process(fleet)
    last = len(data.preload_batches) - 1
    with tracer.span("cluster.preload"):
        start = time.perf_counter()
        for index, batch in enumerate(data.preload_batches):
            await loader.ingest(TABLE.name, batch, wait=index == last)
        return time.perf_counter() - start, loader


async def _stop(fleet: list[SketchServer]) -> None:
    for server in fleet:
        await server.stop()  # idempotent


async def _scrape(coordinator: ClusterCoordinator) -> Scrape:
    return Scrape(await coordinator.metrics("json"))


def _phase_totals(before: Scrape, after: Scrape) -> dict[str, float]:
    """Counter and histogram ``count``/``sum`` deltas over one mixed
    phase, summed over the shards; absent series are left out."""
    out = {}
    for key, series in (("applied", f"{SERIES}_applied_records_total"),
                        ("overloads", f"{SERIES}_overloads_total")):
        value = delta(after.counter(series), before.counter(series))
        if value is not None:
            out[key] = value
    for key, series in (("requests", "service_request_seconds"),
                        ("applies", f"{SERIES}_apply_seconds")):
        summary = after.histogram(series)
        if summary is not None:
            count, total = before.histogram(series) or (0, 0.0)
            out[f"{key}_count"] = summary[0] - count
            out[f"{key}_seconds"] = summary[1] - total
    for key in ("hits", "misses"):
        value = after.counter(f"countsketch_position_cache_{key}_total")
        if value is not None:
            out[key] = value
    return out


class _Probes:
    """What the traced run's probes observe, over every round."""

    def __init__(self) -> None:
        self.pings_ms: list[float] = []
        self.backlog: list[float] = []
        self.candidates: list[int] = []


class _Callers:
    """The two closed-loop callers of one round."""

    def __init__(self, data: Inputs, tracer: Tracer, queries: int, first_query: int) -> None:
        self.data = data
        self.tracer = tracer
        self.queries = queries
        self.first_query = first_query
        self.latency: dict[str, list[float]] = {"estimate": [], "topk": []}
        self.acked = 0
        self.sent: collections.Counter[int] = collections.Counter()
        self.failed = 0
        self.attempted = 0
        self.done = asyncio.Event()

    async def ingest(self, coordinator: ClusterCoordinator) -> None:
        batches = self.data.batches
        index = 0
        while not self.done.is_set():
            slot = index % len(batches)
            self.attempted += 1
            try:
                with self.tracer.span("cluster.ingest", index):
                    self.acked += await coordinator.ingest(TABLE.name, batches[slot], wait=True)
            except ServiceError:
                self.failed += 1
            else:
                self.sent[slot] += 1
            index += 1

    async def query(self, coordinator: ClusterCoordinator) -> None:
        try:
            for index in range(self.first_query, self.first_query + self.queries):
                op = "topk" if index % 4 == 3 else "estimate"
                self.attempted += 1
                start = time.perf_counter()
                try:
                    with self.tracer.span(f"cluster.{op}", index):
                        if op == "topk":
                            await coordinator.topk(TABLE.name, K)
                        else:
                            await coordinator.estimate(TABLE.name,
                                                       self.data.query_lists[index % 4096])
                except ServiceError:
                    self.failed += 1
                else:
                    self.latency[op].append((time.perf_counter() - start) * 1e3)
        finally:
            self.done.set()

    async def probe(self, coordinator: ClusterCoordinator, scrape_via: ClusterCoordinator,
                    probes: _Probes) -> None:
        """Traced runs only: ping RTT and shard candidate lists on the
        query connection (bypassing its scatter, so the scatter histogram
        holds query calls alone) and the backlog from the metrics op."""
        while not self.done.is_set():
            for client in coordinator.clients:
                start = time.perf_counter()
                with self.tracer.span("client.ping"):
                    await client.ping()
                probes.pings_ms.append((time.perf_counter() - start) * 1e3)
            union = set()
            for client in coordinator.clients:
                union.update(item for item, _ in await client.topk(TABLE.name))
            probes.candidates.append(len(union))
            scrape = await _scrape(scrape_via)
            probes.backlog.append(scrape.counter(f"{SERIES}_ingested_records_total")
                                  - scrape.counter(f"{SERIES}_applied_records_total"))
            try:
                await asyncio.wait_for(self.done.wait(), 0.25)
            except asyncio.TimeoutError:
                pass


async def _check_round(data: Inputs, callers: _Callers, loader: ClusterCoordinator,
                       queries: ClusterCoordinator, outcome: Outcome) -> list[int]:
    """Exactness and no-silent-drop checks of one round; returns the
    records applied per shard."""
    # One aggregated update of every acknowledged record: by §3.2
    # linearity its counters equal those of any in-order feed.
    counts = data.preload_counts.copy()
    for slot, times in callers.sent.items():
        for item, _ in data.batches[slot]:
            counts[item] += times
    reference = TABLE.build()
    reference.sketch.update_counts(counts)
    stats = await loader.stats(TABLE.name)
    applied = [shard["table"]["records_applied"] for shard in stats["shards"]]
    outcome.check("applied equals acknowledged across shards",
                  sum(applied) == data.preload.size + callers.acked)
    sketch = reference.sketch
    for keys in data.query_lists[:32]:
        outcome.check("estimates bit-equal to one offline topk summary's sketch",
                      await queries.estimate(TABLE.name, keys)
                      == [sketch.estimate(key) for key in keys])
    top = await queries.topk(TABLE.name, K)
    outcome.check("top-k scores bit-equal to one offline topk summary's sketch",
                  len(top) == K and all(score == sketch.estimate(item) for item, score in top))
    return applied


def _scatter(registry: MetricsRegistry | None) -> tuple[float, float]:
    if registry is None:
        return 0, 0.0
    summary = registry.snapshot()["histograms"].get("cluster_scatter_seconds")
    return (summary["count"], summary["sum"]) if summary is not None else (0, 0.0)


async def _run(seconds: float, tracer: Tracer, smoke: bool, strict: bool, data: Inputs,
               outcome: Outcome) -> None:
    registry = MetricsRegistry() if tracer.enabled else None
    queries_per_round = QUERIES // 10 if smoke else QUERIES
    # Per round: seconds to pre-load, and seconds per acknowledged record.
    times: dict[str, list[float]] = {"approxtop": [], "ingest": []}
    latency: dict[str, list[list[float]]] = {"estimate": [], "topk": []}
    setups: list[float] = []
    totals: collections.Counter[str] = collections.Counter()
    applied_per_shard = [0] * SHARDS
    probes = _Probes()
    phase_total = cpu_total = 0.0
    scatter_count, scatter_seconds = 0, 0.0
    peak_mb = 0.0
    deadline = time.perf_counter() + seconds
    while len(times["ingest"]) < MIN_ROUNDS or time.perf_counter() < deadline:
        for _ in range(SETUPS):
            start = time.perf_counter()
            servers, _ = await _fleet(registry)
            setups.append(time.perf_counter() - start)
            await _stop(servers)
        servers, queries = await _fleet(registry)
        try:
            elapsed, loader = await _preload(servers, data, tracer)
            times["approxtop"].append(elapsed)
            outcome.attempted += len(data.preload_batches)

            callers = _Callers(data, tracer, queries_per_round,
                               len(times["ingest"]) * queries_per_round)
            before = await _scrape(loader)
            scatter_before = _scatter(registry)
            cpu_self = cpu_seconds()
            phase_start = time.perf_counter()
            jobs = [callers.ingest(loader), callers.query(queries)]
            if tracer.enabled:
                jobs.append(callers.probe(queries, loader, probes))
            await asyncio.gather(*jobs)
            phase = time.perf_counter() - phase_start
            cpu_total += cpu_seconds() - cpu_self
            scatter_after = _scatter(registry)
            after = await _scrape(loader)

            phase_total += phase
            scatter_count += scatter_after[0] - scatter_before[0]
            scatter_seconds += scatter_after[1] - scatter_before[1]
            times["ingest"].append(phase / callers.acked)
            for op in latency:
                latency[op].append(callers.latency[op])
            phase_totals = _phase_totals(before, after)
            totals.update(phase_totals)
            outcome.attempted += callers.attempted
            outcome.failed += callers.failed + int(phase_totals.get("overloads", 0))
            applied = await _check_round(data, callers, loader, queries, outcome)
            applied_per_shard = [a + b for a, b in zip(applied_per_shard, applied)]
            peak_mb = max(peak_mb, rss_mb())
        finally:
            await _stop(servers)

    outcome.e2e["setup_s"] = quiet(setups)
    outcome.e2e["approxtop_items_per_s"] = data.preload.size / quiet(times["approxtop"])
    outcome.e2e["ingest_items_per_s"] = 1 / quiet(times["ingest"])
    outcome.e2e["peak_rss_mb"] = peak_mb
    for op, rounds in latency.items():
        outcome.latencies(op, rounds, strict)

    layers = outcome.layers
    layers["loadgen.cpu_busy_share"] = cpu_total / phase_total
    layers["cluster.shard_skew"] = max(applied_per_shard) / (sum(applied_per_shard) / SHARDS)
    layers["tables.overload_refusals"] = totals["overloads"]
    if totals["requests_count"]:
        layers["server.request_ms_mean"] = (
            totals["requests_seconds"] / totals["requests_count"] * 1e3)
    if totals["applies_count"] and totals["applied"]:
        layers["tables.apply_busy_share"] = totals["applies_seconds"] / phase_total
        layers["tables.apply_ns_per_record"] = totals["applies_seconds"] * 1e9 / totals["applied"]
        layers["tables.records_per_apply"] = totals["applied"] / totals["applies_count"]
    hit_ratio = ratio(totals["hits"], totals["hits"] + totals["misses"])
    if hit_ratio is not None:
        layers["hashing.position_cache_hit_ratio"] = hit_ratio
    if probes.backlog:
        layers["tables.backlog_records_p50"] = percentile(probes.backlog, 50)
        layers["tables.backlog_records_max"] = max(probes.backlog)
    if probes.candidates:
        layers["cluster.topk_candidates"] = sum(probes.candidates) / len(probes.candidates)
    if probes.pings_ms:
        layers["client.ping_rtt_ms_p50"] = percentile(probes.pings_ms, 50)
    if scatter_count:
        calls = tracer.durations_ms("cluster.estimate") + tracer.durations_ms("cluster.topk")
        layers["cluster.scatter_ms_mean"] = scatter_seconds / scatter_count * 1e3
        # Derived: coordinator call time not spent in a scatter.
        layers["cluster.gather_ms_mean"] = (sum(calls) - scatter_seconds * 1e3) / len(calls)

    def layer_replay() -> dict[str, float]:
        values = replay.layers(
            tracer, client_batches=[[k for k, _ in b] for b in data.batches[:2048]],
            scalar_items=data.stream.tolist()[:1 << 14], query_keys=data.query_lists,
            packed_ingest=True, depth=DEPTH, width=WIDTH)
        if probes.pings_ms:
            # Derived: estimate latency minus ping RTT, the replayed
            # row readouts on each shard and the codec time per shard.
            fixed = SHARDS * (percentile(probes.pings_ms, 50)
                              + 64 * values["core.estimate_ns_per_key.scalar"] / 1e6
                              + values["protocol.query_codec_us"] / 1e3)
            waits = [max(0.0, ms - fixed) for ms in tracer.durations_ms("cluster.estimate")]
            values["tables.barrier_wait_ms_p50"] = percentile(waits, 50)
            values["tables.barrier_wait_ms_p99"] = percentile(waits, 99)
        return values

    outcome.replay = layer_replay


def run(seed: int, seconds: float, tracer: Tracer, *, smoke: bool, strict: bool) -> Outcome:
    pin_to_one_cpu()
    data = Inputs(seed, smoke)
    freeze_inputs()
    outcome = Outcome(data.fingerprint)
    asyncio.run(_run(seconds, tracer, smoke, strict, data, outcome))
    return outcome
