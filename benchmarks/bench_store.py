"""BENCH — snapshot save/load and checkpoint throughput (repro.store).

Measures, per summary type and sketch width:

* ``dumps`` / ``loads`` — in-memory encode/decode throughput (MB/s over
  the frame bytes), the codec cost with the filesystem factored out;
* ``save`` / ``load`` — atomic file write (tmp + fsync + rename) and
  file read throughput, what checkpointing actually pays;
* a :class:`~repro.store.CheckpointManager` ingestion pass, reported as
  items/s alongside the same ``update_batch`` chunks applied without
  checkpointing, so the per-checkpoint cost is visible as an overhead
  percentage.  The two passes are taken as alternating pairs (ABBA, as
  ``bench_overhead.py`` takes its off/on pairs), and the overhead is
  the median of the per-pair overheads, with their range.

Every timed round-trip also asserts exactness (``loads(dumps(s)) == s``
state), so the bench doubles as a coarse correctness smoke.

Emits a BENCH json (``benchmarks/out/BENCH_store.json``) so future perf
PRs have a trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_store.py            # full
    PYTHONPATH=src python benchmarks/bench_store.py --smoke    # quick
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.core.windowed import JumpingWindowSketch
from repro.store import CheckpointManager, dumps, load, loads, save
from repro.streams.io import DEFAULT_CHUNK_SIZE
from repro.streams.zipf import ZipfStreamGenerator

OUT_PATH = Path(__file__).parent / "out" / "BENCH_store.json"

DEPTH = 5
SEED = 0

#: Plain/checkpointed pairs of the checkpoint cell.  One unpaired pass of
#: each read +11.03% and +27.48% overhead in two back-to-back full-size
#: runs of the same code (2 shared vCPUs).
CHECKPOINT_PAIRS = 5


def _make_stream(n: int) -> list:
    """A Zipf(1.0) item stream — the repo's canonical workload."""
    return list(ZipfStreamGenerator(m=10_000, z=1.0, seed=7).generate(n))


def _build(kind: str, width: int, stream: list):
    """One loaded summary of ``kind`` at ``width`` over ``stream``."""
    if kind == "dense":
        summary = CountSketch(DEPTH, width, seed=SEED)
    elif kind == "sparse":
        summary = SparseCountSketch(DEPTH, width, seed=SEED)
    elif kind == "vectorized":
        summary = VectorizedCountSketch(DEPTH, width, seed=SEED)
    elif kind == "topk":
        summary = TopKTracker(10, depth=DEPTH, width=width, seed=SEED)
    elif kind == "window":
        summary = JumpingWindowSketch(
            len(stream), buckets=8, depth=DEPTH, width=width, seed=SEED
        )
    else:  # pragma: no cover - defensive
        raise ValueError(kind)
    update = summary.update
    for item in stream:
        update(item)
    return summary


def _best_rate(payload_bytes: int, repeats: int, fn) -> float:
    """Best-of-``repeats`` MB/s for ``fn`` over ``payload_bytes``."""
    best = 0.0
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = max(best, payload_bytes / elapsed / 1e6)
    return best


def bench_snapshot(kind: str, width: int, stream: list, repeats: int,
                   tmp_dir: Path) -> dict:
    """Codec + file throughput for one (kind, width) cell."""
    summary = _build(kind, width, stream)
    frame = dumps(summary)
    restored = loads(frame)
    assert dumps(restored) == frame, "round-trip must be byte-exact"
    path = tmp_dir / f"{kind}-{width}.rcs"

    return {
        "type": kind,
        "width": width,
        "frame_bytes": len(frame),
        "dumps_mb_per_s": round(
            _best_rate(len(frame), repeats, lambda: dumps(summary)), 1
        ),
        "loads_mb_per_s": round(
            _best_rate(len(frame), repeats, lambda: loads(frame)), 1
        ),
        "save_mb_per_s": round(
            _best_rate(len(frame), repeats, lambda: save(summary, path)), 1
        ),
        "load_mb_per_s": round(
            _best_rate(len(frame), repeats, lambda: load(path)), 1
        ),
    }


def _checkpoint_pair(stream: list, width: int, every_items: int,
                     path: Path, index: int) -> tuple[float, float]:
    """One plain and one checkpointed pass over ``stream``, as items/s.

    Both sides apply the chunks :meth:`CheckpointManager.extend` cuts
    (at most ``DEFAULT_CHUNK_SIZE`` records, ending at every
    ``every_items`` boundary) with ``update_batch``; the checkpointed
    side goes through the manager, which snapshots at each boundary and
    once more at the end, as ``extend`` does.  The passes advance
    together, one ``every_items`` segment at a time, alternating which
    side goes first (ABBA), so host noise lasting longer than a segment
    lands on both sides alike.
    """
    plain = TopKTracker(10, depth=DEPTH, width=width, seed=SEED)
    manager = CheckpointManager(
        TopKTracker(10, depth=DEPTH, width=width, seed=SEED), path,
        every_items=every_items,
    )
    sides = (plain.update_batch, manager.update_batch)
    elapsed = [0.0, 0.0]
    for step, first in enumerate(range(0, len(stream), every_items)):
        segment = stream[first:first + every_items]
        for side in ((0, 1) if (step + index) % 2 == 0 else (1, 0)):
            began = time.perf_counter()
            for start in range(0, len(segment), DEFAULT_CHUNK_SIZE):
                sides[side](segment[start:start + DEFAULT_CHUNK_SIZE])
            elapsed[side] += time.perf_counter() - began
    began = time.perf_counter()
    manager.flush()
    elapsed[1] += time.perf_counter() - began
    return len(stream) / elapsed[0], len(stream) / elapsed[1]


def bench_checkpoint(stream: list, width: int, every_items: int,
                     tmp_dir: Path) -> dict:
    """Checkpointed vs plain ingestion throughput for a TopKTracker:
    each side's median items/s over :data:`CHECKPOINT_PAIRS` pairs, and
    the median and range of the per-pair overheads."""
    pairs = [
        _checkpoint_pair(stream, width, every_items,
                         tmp_dir / "checkpoint.rcs", index)
        for index in range(CHECKPOINT_PAIRS)
    ]
    overheads = [100.0 * (plain - checkpointed) / plain
                 for plain, checkpointed in pairs]
    return {
        "width": width,
        "every_items": every_items,
        "checkpoints": len(stream) // every_items + 1,
        "pairs": len(pairs),
        "plain_items_per_s": round(
            statistics.median(plain for plain, __ in pairs)),
        "checkpointed_items_per_s": round(
            statistics.median(checkpointed for __, checkpointed in pairs)),
        "overhead_pct": round(statistics.median(overheads), 2),
        "overhead_pct_range": [round(min(overheads), 2),
                               round(max(overheads), 2)],
    }


def run(n: int, widths: list[int], repeats: int) -> dict:
    """Measure every (type, width) cell; return the BENCH record."""
    stream = _make_stream(n)
    kinds = ["dense", "sparse", "vectorized", "topk", "window"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        snapshots = [
            bench_snapshot(kind, width, stream, repeats, tmp_dir)
            for kind in kinds
            for width in widths
        ]
        checkpoint = bench_checkpoint(
            stream, widths[-1], every_items=max(1, n // 10), tmp_dir=tmp_dir
        )
    return {
        "bench": "store",
        "n": n,
        "repeats": repeats,
        "snapshots": snapshots,
        "checkpoint": checkpoint,
    }


def format_report(record: dict) -> str:
    """Human-readable summary of one BENCH record."""
    lines = [
        "BENCH store (n={n}, best of {repeats})".format(**record),
        "  {:<11} {:>7} {:>11} {:>9} {:>9} {:>9} {:>9}".format(
            "type", "width", "bytes", "dumps", "loads", "save", "load"
        ),
    ]
    for row in record["snapshots"]:
        lines.append(
            "  {type:<11} {width:>7} {frame_bytes:>11,} "
            "{dumps_mb_per_s:>7.1f}MB {loads_mb_per_s:>7.1f}MB "
            "{save_mb_per_s:>7.1f}MB {load_mb_per_s:>7.1f}MB".format(**row)
        )
    ckpt = record["checkpoint"]
    lines.append(
        "  checkpoint (topk w={width}, every {every_items}, median of "
        "{pairs} pairs): {plain_items_per_s:,} items/s plain | "
        "{checkpointed_items_per_s:,} items/s checkpointed | "
        "{overhead_pct:+.2f}% overhead".format(**ckpt)
        + " (pairs {:+.2f}% to {:+.2f}%)".format(*ckpt["overhead_pct_range"])
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the bench and write the BENCH json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200_000,
                        help="stream length (default 200000)")
    parser.add_argument("--widths", type=int, nargs="+",
                        default=[256, 1024, 4096],
                        help="sketch widths to sweep (default 256 1024 4096)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best kept (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick mode: small n, one width, fewer repeats")
    parser.add_argument("--json", dest="json_path",
                        help=f"BENCH json output path (default {OUT_PATH}; "
                             "a --smoke run writes only to a given path)")
    args = parser.parse_args(argv)

    n = min(args.n, 20_000) if args.smoke else args.n
    widths = args.widths[:1] if args.smoke else args.widths
    repeats = min(args.repeats, 2) if args.smoke else args.repeats

    record = run(n, widths, repeats)
    print(format_report(record))

    # A smoke run must not overwrite the committed full-size figures.
    json_path = args.json_path or (None if args.smoke else OUT_PATH)
    if json_path is not None:
        path = Path(json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
