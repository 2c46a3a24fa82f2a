"""BENCH — production traffic against the hardened service tier.

Drives three seeded ``repro.traffic`` scenarios against live servers
and records saturation throughput, p50/p99/p999 latency, refusal
counts, per-tenant fairness, and bit-exactness under fire:

* **mixed** — closed-loop saturation, uniform tenants, no limits: the
  baseline throughput/latency surface, with the mid-load exactness
  probe running while the other tables are hammered.
* **hot_tenant** — one tenant receives most of the offered load
  (Zipf-skewed tenant choice) with per-table ingest quotas and
  weighted-fair draining enabled.  Every tenant must achieve at least
  ``FAIR_SHARE_FLOOR`` of its *fair-share throughput* — the smaller of
  what it offered and what its quota admits — so a hot tenant can be
  throttled but can never starve a cold one.
* **shedding** — a real TCP server with a tiny ingest queue, low
  quotas, and a connection cap: overload must surface as documented
  ``overloaded`` / ``quota_exceeded`` refusals (never ``internal``
  errors or silent drops), estimates must stay bit-equal to an offline
  summary mid-load, and the connection cap must refuse the excess
  connection with one ``overloaded`` frame.

``--gate`` asserts all of the above.  Emits
``benchmarks/out/BENCH_traffic.json`` so future perf PRs have a
trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_traffic.py            # full
    PYTHONPATH=src python benchmarks/bench_traffic.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_traffic.py --gate     # CI bound
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.service import (
    AsyncServiceClient,
    OverloadedError,
    ServiceConnectionError,
    ServiceError,
    ServiceLimits,
    SketchServer,
)
from repro.traffic import TrafficRunner, WorkloadSpec

OUT_PATH = Path(__file__).parent / "out" / "BENCH_traffic.json"

SEED = 7

#: Every tenant must reach this fraction of its fair-share throughput
#: (min of offered records and quota-admitted records) in hot_tenant.
FAIR_SHARE_FLOOR = 0.5

#: hot_tenant per-table ingest quota (records/second).
HOT_INGEST_RATE = 4000.0

#: shedding scenario connection cap (runner needs clients + admin).
SHED_MAX_CONNECTIONS = 8


async def _scenario_mixed(duration: float) -> dict:
    """Closed-loop saturation with uniform tenants and no limits."""
    server = SketchServer()
    await server.start()
    try:
        spec = WorkloadSpec(tenants=4, keys_per_tenant=256,
                            query_fraction=0.25, batch_size=32,
                            seed=SEED, table_prefix="mix")
        runner = TrafficRunner(spec, clients=4, duration=duration)
        report = await runner.run(
            lambda: AsyncServiceClient.in_process(server))
    finally:
        await server.stop()
    return {"scenario": "mixed", **report.to_dict()}


async def _scenario_hot_tenant(duration: float) -> dict:
    """Zipf-skewed tenants under per-table quotas + fair draining."""
    limits = ServiceLimits(ingest_rate=HOT_INGEST_RATE,
                           fair_quantum=128)
    server = SketchServer(limits=limits)
    await server.start()
    try:
        spec = WorkloadSpec(tenants=4, keys_per_tenant=256,
                            zipf_tenant=2.0, query_fraction=0.1,
                            batch_size=32, seed=SEED,
                            table_prefix="hot")
        runner = TrafficRunner(spec, clients=6, duration=duration)
        report = await runner.run(
            lambda: AsyncServiceClient.in_process(server))
    finally:
        await server.stop()
    row = {"scenario": "hot_tenant", **report.to_dict()}
    # Fair share per tenant: what it offered, capped by what its quota
    # admits over the run (steady rate plus the initial burst).
    admitted = HOT_INGEST_RATE * report.duration + HOT_INGEST_RATE
    fair = {}
    for name in spec.table_names():
        offered = report.per_tenant_sent.get(name, 0)
        acknowledged = report.per_tenant_records.get(name, 0)
        share = min(offered, admitted)
        fair[name] = {
            "offered": offered,
            "acknowledged": acknowledged,
            "fair_share": round(share),
            "fraction": (round(acknowledged / share, 4)
                         if share > 0 else 1.0),
        }
    row["fair_share"] = fair
    return row


async def _check_connection_cap(host: str, port: int) -> dict:
    """Open connections past the cap; the excess one must be refused
    with a documented ``overloaded`` frame (or an immediate close)."""
    extras: list[AsyncServiceClient] = []
    shed = False
    opened = 0
    try:
        for _ in range(SHED_MAX_CONNECTIONS + 2):
            client = await AsyncServiceClient.connect(host, port)
            try:
                await client.ping()
            except (OverloadedError, ServiceConnectionError):
                shed = True
                await client.close()
                break
            extras.append(client)
            opened += 1
    finally:
        for client in extras:
            await client.close()
    return {"opened_before_refusal": opened, "refused": shed}


async def _scenario_shedding(duration: float) -> dict:
    """TCP server under overload: tiny queue, low quotas, conn cap."""
    limits = ServiceLimits(max_connections=SHED_MAX_CONNECTIONS,
                           ingest_rate=2000.0, ingest_burst=256)
    server = SketchServer(queue_capacity=4, limits=limits)
    host, port = await server.start("127.0.0.1", 0)
    try:
        spec = WorkloadSpec(tenants=2, keys_per_tenant=256,
                            query_fraction=0.05, batch_size=64,
                            seed=SEED, table_prefix="shed")
        runner = TrafficRunner(spec, clients=5, duration=duration)
        report = await runner.run(
            lambda: AsyncServiceClient.connect(host, port))
        cap = await _check_connection_cap(host, port)
    finally:
        await server.stop()
    return {"scenario": "shedding", "connection_cap": cap,
            **report.to_dict()}


def run(duration: float) -> dict:
    """Run the three scenarios; return the BENCH record."""

    async def drive() -> dict:
        return {
            "bench": "traffic",
            "seed": SEED,
            "duration_per_scenario": duration,
            "fair_share_floor": FAIR_SHARE_FLOOR,
            "scenarios": {
                "mixed": await _scenario_mixed(duration),
                "hot_tenant": await _scenario_hot_tenant(duration),
                "shedding": await _scenario_shedding(duration),
            },
        }

    return asyncio.run(drive())


def check_gate(record: dict) -> str | None:
    """Assert the documented traffic bounds (see module docstring)."""
    mixed = record["scenarios"]["mixed"]
    for kind in ("ingest", "estimate"):
        stats = mixed["latency"].get(kind)
        if stats is None or stats["count"] == 0:
            return f"gate FAILED: mixed scenario completed no {kind} ops"
        if not (stats["p50_ms"] <= stats["p99_ms"] <= stats["p999_ms"]):
            return (
                f"gate FAILED: mixed {kind} percentiles are not "
                f"monotone: {stats}"
            )
    if mixed["throughput_ops_per_s"] <= 0:
        return "gate FAILED: mixed scenario reports no throughput"

    hot = record["scenarios"]["hot_tenant"]
    for name, cell in hot["fair_share"].items():
        if cell["fair_share"] > 0 and cell["fraction"] < FAIR_SHARE_FLOOR:
            return (
                f"gate FAILED: tenant {name} achieved only "
                f"{cell['fraction']:.2f} of its fair-share throughput "
                f"(floor {FAIR_SHARE_FLOOR})"
            )

    shed = record["scenarios"]["shedding"]
    refusals = (shed["errors"].get("overloaded", 0)
                + shed["errors"].get("quota_exceeded", 0))
    if refusals == 0:
        return (
            "gate FAILED: shedding scenario produced no "
            "overloaded/quota_exceeded refusals"
        )
    if not shed["connection_cap"]["refused"]:
        return (
            "gate FAILED: the connection cap never refused an excess "
            "connection"
        )

    for name, row in record["scenarios"].items():
        if "internal" in row["errors"]:
            return (
                f"gate FAILED: scenario {name} surfaced "
                f"{row['errors']['internal']} internal error(s)"
            )
        if not row["verification"]["no_silent_drops"]:
            return (
                f"gate FAILED: scenario {name} silently dropped "
                "acknowledged records"
            )
        if not row["probe"]["bit_equal"]:
            return (
                f"gate FAILED: scenario {name} mid-load estimates "
                "diverged from the offline summary"
            )
    return None


def format_report(record: dict) -> str:
    """Human-readable summary of one BENCH record."""
    lines = [
        "BENCH traffic (seed={seed}, {duration_per_scenario}s per "
        "scenario)".format(**record),
    ]
    for name, row in record["scenarios"].items():
        total_ops = sum(row["ops"].values())
        total_errors = sum(row["errors"].values())
        lines.append(
            f"  {name}: {total_ops} ops "
            f"({row['throughput_ops_per_s']:.0f} ops/s), "
            f"{total_errors} refused, fairness "
            f"{row['fairness_ratio']:.3f}"
        )
        for kind in sorted(row["latency"]):
            stats = row["latency"][kind]
            lines.append(
                f"    {kind}: n={stats['count']} "
                f"p50={stats['p50_ms']:.2f}ms "
                f"p99={stats['p99_ms']:.2f}ms "
                f"p999={stats['p999_ms']:.2f}ms"
            )
        for code in sorted(row["errors"]):
            lines.append(f"    refused {code}: {row['errors'][code]}")
        probe = row["probe"]
        lines.append(
            f"    probe: {probe['keys_exact']}/{probe['keys_checked']} "
            f"keys bit-equal mid-load"
        )
    cap = record["scenarios"]["shedding"]["connection_cap"]
    lines.append(
        f"  connection cap: refused after {cap['opened_before_refusal']} "
        f"open connections: {cap['refused']}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the bench and write the BENCH json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds of load per scenario (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick mode: 0.8s per scenario")
    parser.add_argument("--gate", action="store_true",
                        help="fail (exit 1) unless saturation, fairness "
                             "floor, refusal, exactness, and no-silent-"
                             "drop bounds all hold")
    parser.add_argument("--json", dest="json_path",
                        help=f"BENCH json output path (default {OUT_PATH}; "
                             "a --smoke run writes only to a given path)")
    args = parser.parse_args(argv)

    duration = 0.8 if args.smoke else args.duration
    try:
        record = run(duration)
    except ServiceError as error:
        print(f"bench FAILED with a service error: {error}",
              file=sys.stderr)
        return 1
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
        print("gate ok: saturation, fairness floor, documented "
              "refusals, bit-exactness, and no silent drops all hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
