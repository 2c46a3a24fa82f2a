"""BENCH — instrumentation overhead on the dense-sketch hot paths.

Measures update throughput for the same workload three ways:

* ``disabled`` — the default :class:`~repro.observability.NullRegistry`
  (what every uninstrumented run pays after this PR; the acceptance bar
  is that this stays within a few percent of the pre-instrumentation
  baseline, i.e. the ``is not None`` guards are near-free);
* ``enabled`` — a collecting :class:`~repro.observability.MetricsRegistry`
  (what ``--metrics-out`` runs pay);
* a :class:`~repro.core.topk.TopKTracker` pass under both registries
  (sketch + heap instrumentation combined).

Emits a BENCH json (``benchmarks/out/BENCH_overhead.json``) so future
perf PRs have a trajectory, and exits nonzero when the enabled-registry
overhead exceeds ``--max-overhead-pct`` — the CI smoke gate
(``--smoke``) that keeps instrumentation regressions out of production.

Run::

    PYTHONPATH=src python benchmarks/bench_overhead.py            # full
    PYTHONPATH=src python benchmarks/bench_overhead.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.observability import MetricsRegistry, use_registry
from repro.streams.zipf import ZipfStreamGenerator

OUT_PATH = Path(__file__).parent / "out" / "BENCH_overhead.json"


def _make_stream(n: int) -> list:
    """A Zipf(1.0) item stream — the repo's canonical hot-path workload."""
    return list(ZipfStreamGenerator(m=10_000, z=1.0, seed=7).generate(n))


def _time_sketch_updates(stream: list, repeats: int) -> float:
    """Best-of-``repeats`` items/s for a dense CountSketch update loop."""
    best = 0.0
    for __ in range(repeats):
        sketch = CountSketch(5, 1024, seed=0)
        update = sketch.update
        start = time.perf_counter()
        for item in stream:
            update(item)
        elapsed = time.perf_counter() - start
        best = max(best, len(stream) / elapsed)
    return best


def _time_tracker_updates(stream: list, repeats: int) -> float:
    """Best-of-``repeats`` items/s for a TopKTracker pass."""
    best = 0.0
    for __ in range(repeats):
        tracker = TopKTracker(10, depth=5, width=1024, seed=0)
        update = tracker.update
        start = time.perf_counter()
        for item in stream:
            update(item)
        elapsed = time.perf_counter() - start
        best = max(best, len(stream) / elapsed)
    return best


def run(n: int, repeats: int) -> dict:
    """Measure disabled vs enabled throughput; return the BENCH record."""
    stream = _make_stream(n)

    sketch_disabled = _time_sketch_updates(stream, repeats)
    tracker_disabled = _time_tracker_updates(stream, repeats)
    with use_registry(MetricsRegistry()):
        sketch_enabled = _time_sketch_updates(stream, repeats)
        tracker_enabled = _time_tracker_updates(stream, repeats)

    def overhead(disabled: float, enabled: float) -> float:
        return 100.0 * (disabled - enabled) / disabled

    return {
        "bench": "overhead",
        "n": n,
        "repeats": repeats,
        "sketch_disabled_items_per_s": round(sketch_disabled),
        "sketch_enabled_items_per_s": round(sketch_enabled),
        "sketch_overhead_pct": round(
            overhead(sketch_disabled, sketch_enabled), 2
        ),
        "tracker_disabled_items_per_s": round(tracker_disabled),
        "tracker_enabled_items_per_s": round(tracker_enabled),
        "tracker_overhead_pct": round(
            overhead(tracker_disabled, tracker_enabled), 2
        ),
    }


def format_report(record: dict) -> str:
    """Human-readable summary of one BENCH record."""
    return (
        "BENCH overhead (n={n}, best of {repeats})\n"
        "  dense sketch : {sketch_disabled_items_per_s:>10,} items/s "
        "disabled | {sketch_enabled_items_per_s:>10,} items/s enabled "
        "| {sketch_overhead_pct:+.2f}% overhead\n"
        "  topk tracker : {tracker_disabled_items_per_s:>10,} items/s "
        "disabled | {tracker_enabled_items_per_s:>10,} items/s enabled "
        "| {tracker_overhead_pct:+.2f}% overhead"
    ).format(**record)


def main(argv: list[str] | None = None) -> int:
    """Run the bench; write the BENCH json; gate on enabled overhead."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400_000,
                        help="stream length (default 400000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best kept (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small n, fewer repeats")
    parser.add_argument("--json", dest="json_path",
                        help=f"BENCH json output path (default {OUT_PATH}; "
                             "a --smoke run writes only to a given path)")
    parser.add_argument("--max-overhead-pct", type=float, default=30.0,
                        help="fail when enabled-registry overhead exceeds "
                             "this percentage (default 30)")
    args = parser.parse_args(argv)

    n = min(args.n, 60_000) if args.smoke else args.n
    repeats = min(args.repeats, 2) if args.smoke else args.repeats
    record = run(n, repeats)
    print(format_report(record))

    # A smoke run must not overwrite the committed full-size figures.
    json_path = args.json_path or (None if args.smoke else OUT_PATH)
    if json_path is not None:
        path = Path(json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")

    worst = max(record["sketch_overhead_pct"], record["tracker_overhead_pct"])
    if worst > args.max_overhead_pct:
        print(
            f"FAIL: enabled-metrics overhead {worst:.2f}% exceeds "
            f"{args.max_overhead_pct:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
