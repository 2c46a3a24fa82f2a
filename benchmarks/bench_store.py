"""BENCH — snapshot save/load and checkpoint throughput (repro.store).

Measures, per summary type and sketch width:

* ``dumps`` / ``loads`` — in-memory encode/decode throughput (MB/s over
  the frame bytes), the codec cost with the filesystem factored out;
* ``save`` / ``load`` — atomic file write (tmp + fsync + rename) and
  file read throughput, what checkpointing actually pays;
* a :class:`~repro.store.CheckpointManager` ingestion pass, reported as
  items/s alongside the same ``update_batch`` chunks applied without
  checkpointing, so the per-checkpoint cost is visible as an overhead
  percentage.

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
import itertools
import json
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


def bench_checkpoint(stream: list, width: int, every_items: int,
                     tmp_dir: Path) -> dict:
    """Checkpointed vs plain ingestion throughput for a TopKTracker.

    The plain side cuts the stream into the chunks
    :meth:`CheckpointManager.extend` applies (at most
    ``DEFAULT_CHUNK_SIZE`` records, ending at every ``every_items``
    boundary) and applies each with ``update_batch``, so the overhead
    is the snapshots alone.
    """
    plain = TopKTracker(10, depth=DEPTH, width=width, seed=SEED)
    records = iter(stream)
    consumed = 0
    start = time.perf_counter()
    while chunk := list(itertools.islice(records, min(
            DEFAULT_CHUNK_SIZE, every_items - consumed % every_items))):
        plain.update_batch(chunk)
        consumed += len(chunk)
    plain_rate = len(stream) / (time.perf_counter() - start)

    manager = CheckpointManager(
        TopKTracker(10, depth=DEPTH, width=width, seed=SEED),
        tmp_dir / "checkpoint.rcs",
        every_items=every_items,
    )
    start = time.perf_counter()
    manager.extend(stream)
    checkpointed_rate = len(stream) / (time.perf_counter() - start)

    return {
        "width": width,
        "every_items": every_items,
        "checkpoints": len(stream) // every_items + 1,
        "plain_items_per_s": round(plain_rate),
        "checkpointed_items_per_s": round(checkpointed_rate),
        "overhead_pct": round(
            100.0 * (plain_rate - checkpointed_rate) / plain_rate, 2
        ),
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
        "  checkpoint (topk w={width}, every {every_items}): "
        "{plain_items_per_s:,} items/s plain | "
        "{checkpointed_items_per_s:,} items/s checkpointed | "
        "{overhead_pct:+.2f}% overhead".format(**ckpt)
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
