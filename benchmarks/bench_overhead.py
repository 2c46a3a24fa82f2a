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

Host noise (another tenant, a slower vCPU, frequency steps) moves a
single run by more than the overhead being measured, so the two sides
are sampled as pairs: each repeat runs one metrics-off and one
metrics-on pass in alternating turns (ABBA), in a process pinned to one
CPU.  The reported overhead is the median of the per-pair overheads;
the items/s figures are each side's median.

Run::

    PYTHONPATH=src python benchmarks/bench_overhead.py            # full
    PYTHONPATH=src python benchmarks/bench_overhead.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.observability import MetricsRegistry, use_registry
from repro.streams.zipf import ZipfStreamGenerator

OUT_PATH = Path(__file__).parent / "out" / "BENCH_overhead.json"

#: Items each side processes before the other takes its turn.  Whole
#: passes taken one after the other gave per-pair overheads from -17% to
#: +20% on one 60k-item smoke run (2 shared vCPUs); 500-item turns gave
#: +1% to +8%.
CHUNK = 500

#: Off/on pairs of a ``--smoke`` run: its 60k-item passes are short, so
#: it takes more pairs than the full run, an odd number so the median is
#: one pair's figure.
SMOKE_PAIRS = 5


def _make_stream(n: int) -> list:
    """A Zipf(1.0) item stream — the repo's canonical hot-path workload."""
    return list(ZipfStreamGenerator(m=10_000, z=1.0, seed=7).generate(n))


def _sketch_updater() -> Callable[..., None]:
    """A fresh dense CountSketch's per-item ``update``."""
    return CountSketch(5, 1024, seed=0).update


def _tracker_updater() -> Callable[..., None]:
    """A fresh TopKTracker's per-item ``update``."""
    return TopKTracker(10, depth=5, width=1024, seed=0).update


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Keep this process on one CPU while timing: the vCPUs of a shared
    VM can differ in speed, and a migration mid-pair would show as
    overhead.  The previous affinity is restored afterwards."""
    if not hasattr(os, "sched_setaffinity"):  # not on this platform
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(previous)[:1])
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def _pair(build: Callable[[], Callable[..., None]], stream: list,
          index: int) -> tuple[float, float]:
    """One metrics-off and one metrics-on pass over ``stream``, as items/s.

    Each side builds its summary under the registry it measures
    (handles are captured at construction).  The two passes advance
    together, ``CHUNK`` items at a time, alternating which side goes
    first (ABBA), so host noise lasting longer than a chunk lands on
    both sides alike.
    """
    with use_registry(None):
        off = build()
    with use_registry(MetricsRegistry()):
        on = build()
    updates = (off, on)
    elapsed = [0.0, 0.0]
    for step, start in enumerate(range(0, len(stream), CHUNK)):
        part = stream[start:start + CHUNK]
        for side in ((0, 1) if (step + index) % 2 == 0 else (1, 0)):
            update = updates[side]
            began = time.perf_counter()
            for item in part:
                update(item)
            elapsed[side] += time.perf_counter() - began
    return len(stream) / elapsed[0], len(stream) / elapsed[1]


def _summary(pairs: list[tuple[float, float]]) -> tuple[int, int, float]:
    """Median items/s of each side and the median per-pair overhead."""
    overheads = [100.0 * (off - on) / off for off, on in pairs]
    return (round(statistics.median(off for off, __ in pairs)),
            round(statistics.median(on for __, on in pairs)),
            round(statistics.median(overheads), 2))


def run(n: int, repeats: int) -> dict:
    """Measure disabled vs enabled throughput; return the BENCH record."""
    stream = _make_stream(n)
    with _one_cpu():
        sketch = _summary([_pair(_sketch_updater, stream, index)
                           for index in range(repeats)])
        tracker = _summary([_pair(_tracker_updater, stream, index)
                            for index in range(repeats)])
    return {
        "bench": "overhead",
        "n": n,
        "repeats": repeats,
        "sketch_disabled_items_per_s": sketch[0],
        "sketch_enabled_items_per_s": sketch[1],
        "sketch_overhead_pct": sketch[2],
        "tracker_disabled_items_per_s": tracker[0],
        "tracker_enabled_items_per_s": tracker[1],
        "tracker_overhead_pct": tracker[2],
    }


def format_report(record: dict) -> str:
    """Human-readable summary of one BENCH record."""
    return (
        "BENCH overhead (n={n}, median of {repeats} off/on pairs)\n"
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
                        help="metrics-off/on timing pairs, median kept "
                             "(default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI mode: small n, {SMOKE_PAIRS} pairs")
    parser.add_argument("--json", dest="json_path",
                        help=f"BENCH json output path (default {OUT_PATH}; "
                             "a --smoke run writes only to a given path)")
    parser.add_argument("--max-overhead-pct", type=float, default=30.0,
                        help="fail when enabled-registry overhead exceeds "
                             "this percentage (default 30)")
    args = parser.parse_args(argv)

    n = min(args.n, 60_000) if args.smoke else args.n
    repeats = SMOKE_PAIRS if args.smoke else args.repeats
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
