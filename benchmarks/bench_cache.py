"""BENCH — W-TinyLFU hit ratio and throughput vs LRU/LFU baselines.

Replays seeded synthetic traces (``repro.cache.simulate``) against the
three cache policies at several capacities and reports hit ratio and
requests/s per run.  Two trace families:

* **zipf** — i.i.d. Zipf(1.1) draws, the §4.1 workload model; the
  frequency-aware policies should win, TinyLFU without LFU's memory
  cost.
* **shifting** — the same popularity law with the hot set re-permuted
  every phase; unaged LFU fossilises the first phase's hot set while
  TinyLFU's ``scale(0.5)`` resets let it adapt.

Mid-way through the first TinyLFU zipf run, the admission sketch is
snapshotted to ``.rcs``, restored, and asserted **bit-for-bit equal**
(CountSketch ``__eq__`` compares the raw counters) with matching
sampling state — persistence is exercised unconditionally, on every
host, before the simulation continues.

``--gate`` additionally asserts the hit-ratio bound: on the zipf trace
TinyLFU must beat plain LRU by ``GATE_MARGIN`` at every capacity below
``MARGIN_CAPACITY_RATIO`` of the keyspace, and must at least match LRU
at the larger capacities (when the whole hot set fits, admission
filtering has nothing left to win).

Emits ``benchmarks/out/BENCH_cache.json`` so future perf PRs have a
trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_cache.py            # full
    PYTHONPATH=src python benchmarks/bench_cache.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_cache.py --gate     # CI bound
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.cache import (
    FrequencySketch,
    TinyLFUCache,
    make_policy,
    shifting_hotset_trace,
    simulate,
    zipf_trace,
)

OUT_PATH = Path(__file__).parent / "out" / "BENCH_cache.json"

ZIPF_Z = 1.1
SEED = 7
POLICY_SEED = 11
PHASES = 5
POLICY_NAMES = ("lru", "lfu", "tinylfu")

#: TinyLFU must beat LRU's zipf hit ratio by this much ...
GATE_MARGIN = 0.02
#: ... at capacities below this fraction of the keyspace; at larger
#: capacities the working set mostly fits and the bound relaxes to
#: "no worse than LRU".
MARGIN_CAPACITY_RATIO = 0.025


def _roundtrip_sketch(policy: TinyLFUCache) -> dict:
    """Save/load the admission sketch and assert bit-for-bit equality."""
    oracle = policy.frequency
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "admission.rcs"
        written = oracle.save(path)
        restored = FrequencySketch.load(path)
    assert restored.sketch == oracle.sketch, \
        "restored admission sketch must be bit-for-bit equal"
    assert (restored.sample_size, restored.samples, restored.resets) == \
        (oracle.sample_size, oracle.samples, oracle.resets), \
        "restored sampling state must match the live oracle"
    probe_keys = range(1, 17)
    assert all(
        restored.sketch.estimate(key) == oracle.sketch.estimate(key)
        for key in probe_keys
    ), "restored sketch must serve identical estimates"
    return {
        "bytes": written,
        "sketch_equal": True,
        "meta_match": True,
        "resets": oracle.resets,
    }


def bench_policy(
    name: str, capacity: int, trace: np.ndarray, *,
    roundtrip: bool = False,
) -> tuple[dict, dict | None]:
    """Replay ``trace`` against one policy; return (row, roundtrip info).

    With ``roundtrip=True`` (TinyLFU only) the run pauses at the trace
    midpoint to push the admission sketch through a ``.rcs`` save/load
    and assert bit-for-bit equality, then continues on the live policy.
    """
    policy = make_policy(name, capacity, seed=POLICY_SEED)
    roundtrip_info = None
    start = time.perf_counter()
    if roundtrip:
        assert isinstance(policy, TinyLFUCache)
        half = len(trace) // 2
        first = simulate(policy, trace[:half])
        timer_pause = time.perf_counter()
        roundtrip_info = _roundtrip_sketch(policy)
        start += time.perf_counter() - timer_pause  # exclude the I/O
        second = simulate(policy, trace[half:])
        hits = first.hits + second.hits
    else:
        hits = simulate(policy, trace).hits
    elapsed = time.perf_counter() - start
    requests = len(trace)
    row = {
        "policy": name,
        "capacity": capacity,
        "requests": requests,
        "hits": hits,
        "hit_ratio": round(hits / requests, 4),
        "ops_per_s": round(requests / elapsed),
    }
    return row, roundtrip_info


def run(n: int, m: int, capacities: list[int]) -> dict:
    """Measure every (trace, capacity, policy) cell; return the record."""
    traces = {
        "zipf": zipf_trace(n, m, ZIPF_Z, seed=SEED),
        "shifting": shifting_hotset_trace(n, m, ZIPF_Z, seed=SEED,
                                          phases=PHASES),
    }
    results: dict[str, list[dict]] = {name: [] for name in traces}
    roundtrip: dict | None = None
    for trace_name, trace in traces.items():
        for capacity in capacities:
            for policy_name in POLICY_NAMES:
                want_roundtrip = (
                    roundtrip is None and trace_name == "zipf"
                    and policy_name == "tinylfu"
                )
                row, info = bench_policy(
                    policy_name, capacity, trace,
                    roundtrip=want_roundtrip,
                )
                results[trace_name].append(row)
                if info is not None:
                    roundtrip = dict(info, capacity=capacity)
    assert roundtrip is not None, \
        "the zipf sweep must include one TinyLFU roundtrip run"
    return {
        "bench": "cache",
        "n": n,
        "m": m,
        "z": ZIPF_Z,
        "seed": SEED,
        "phases": PHASES,
        "capacities": capacities,
        "traces": results,
        "roundtrip": roundtrip,
    }


def check_gate(record: dict) -> str | None:
    """The hit-ratio bound on the zipf trace (see module docstring)."""
    by_cell = {
        (row["capacity"], row["policy"]): row
        for row in record["traces"]["zipf"]
    }
    for capacity in record["capacities"]:
        lru = by_cell[(capacity, "lru")]["hit_ratio"]
        tinylfu = by_cell[(capacity, "tinylfu")]["hit_ratio"]
        small = capacity <= MARGIN_CAPACITY_RATIO * record["m"]
        margin = GATE_MARGIN if small else 0.0
        if tinylfu < lru + margin:
            bound = (
                f"lru + {GATE_MARGIN}" if small else "the lru ratio"
            )
            return (
                f"gate FAILED: tinylfu hit ratio {tinylfu:.4f} at "
                f"capacity {capacity} does not reach {bound} "
                f"(lru={lru:.4f}) on the zipf trace"
            )
    if not record["roundtrip"]["sketch_equal"]:
        return "gate FAILED: admission sketch .rcs roundtrip was not exact"
    return None


def format_report(record: dict) -> str:
    """Human-readable summary of one BENCH record."""
    lines = [
        "BENCH cache (n={n}, m={m}, z={z}, seed={seed})".format(**record),
    ]
    for trace_name, rows in record["traces"].items():
        lines.append(f"  {trace_name} trace:")
        lines.append("    {:<9} {:>9} {:>10} {:>12}".format(
            "policy", "capacity", "hit ratio", "ops/s"))
        for row in rows:
            lines.append(
                "    {policy:<9} {capacity:>9} {hit_ratio:>10.4f} "
                "{ops_per_s:>12,}".format(**row)
            )
    rt = record["roundtrip"]
    lines.append(
        "  roundtrip: admission sketch .rcs save/load at capacity "
        "{capacity} after {resets} reset(s): bit-for-bit equal "
        "({bytes} bytes)".format(**rt)
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the bench and write the BENCH json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000,
                        help="requests per trace (default 1000000)")
    parser.add_argument("--m", type=int, default=200_000,
                        help="distinct keys (default 200000)")
    parser.add_argument("--capacities", type=int, nargs="+",
                        default=[1000, 5000, 20000],
                        help="cache sizes to sweep "
                             "(default 1000 5000 20000)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick mode: 150k requests over 50k keys at "
                             "two capacities")
    parser.add_argument("--gate", action="store_true",
                        help="fail (exit 1) unless TinyLFU beats LRU by "
                             f"{GATE_MARGIN} at small capacities (and "
                             "matches it at large ones) on the zipf "
                             "trace; the .rcs roundtrip is always "
                             "asserted")
    parser.add_argument("--json", dest="json_path",
                        help=f"BENCH json output path (default {OUT_PATH}; "
                             "a --smoke run writes only to a given path)")
    args = parser.parse_args(argv)

    if args.smoke:
        n, m, capacities = 150_000, 50_000, [500, 2000]
    else:
        n, m, capacities = args.n, args.m, list(args.capacities)

    record = run(n, m, capacities)
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
        print("gate ok: tinylfu hit-ratio bound and .rcs roundtrip hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
