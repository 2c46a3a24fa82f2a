"""Command-line interface.

The subcommands cover the library's day-to-day uses on on-disk streams
(one item per line; ``--int-keys`` parses lines as integers):

* ``repro topk`` — the §3.2 one-pass tracker: the approximate top-k items.
* ``repro estimate`` — sketch a stream, print estimates for given items.
* ``repro maxchange`` — the §4.2 two-pass algorithm over two stream files.
* ``repro percent-change`` — the §5 open-problem heuristic over two files.
* ``repro experiment`` — run any named paper experiment (or ``run_all``)
  and print its report (same output the benchmarks persist under
  ``benchmarks/out/``).
* ``repro store`` — work with durable ``.rcs`` snapshots
  (``inspect`` / ``merge`` / ``diff``; see :mod:`repro.store`).
* ``repro serve`` — run the online sketch server (:mod:`repro.service`):
  live tables ingesting over TCP while answering estimate/top-k queries.
* ``repro query`` — client verbs against a running server
  (``create`` / ``ingest`` / ``estimate`` / ``topk`` / ``stats`` /
  ``metrics`` / ``checkpoint`` / ``shutdown`` / ``ping``); every verb
  accepts ``--cluster SPEC`` to aim at a sharded fleet instead.
* ``repro cluster`` — run a sharded fleet (:mod:`repro.cluster`):
  ``serve`` launches and supervises N shard servers, ``rebalance``
  re-shapes a stopped fleet's checkpoints to a new shard count by
  exact snapshot re-merge (§3.2 linearity).
* ``repro traffic`` — drive a seeded multi-tenant workload
  (:mod:`repro.traffic`) against a live server or cluster: Zipfian keys
  and tenants, open- or closed-loop arrivals, reporting saturation
  throughput, p50/p99/p999 latency, shed counts, per-tenant fairness,
  and a mid-load bit-exactness probe.
* ``repro cache`` — sketch-guided cache admission (:mod:`repro.cache`):
  ``simulate`` races W-TinyLFU against LRU/LFU baselines on seeded
  synthetic traces, ``stats`` inspects a saved admission-sketch
  snapshot and scores items against it.

Exit codes are uniform across every subcommand: 0 on success, 1 for
usage errors (bad flags or flag combinations), 2 for data errors
(unreadable streams, corrupt or mismatched snapshots, connection
failures).

Input files are consumed incrementally (never materialized in memory), so
multi-GB logs stream through in bounded space: ``topk`` and ``estimate``
read fixed-size chunks of records and apply each with one
``update_batch`` call, which leaves the summary bit-for-bit as the
per-record loop would.  To spread ingest over processes, run a cluster
(``repro cluster serve`` plus ``repro query ingest --cluster``).

``topk`` and ``estimate`` persist state: ``--save-state PATH`` snapshots
the summary on exit (``--checkpoint-every N`` also snapshots it every
``N`` items mid-stream), and ``--resume PATH`` restores a snapshot and
skips the already-consumed stream prefix.  ``repro estimate --sketch
snap.rcs key1 key2`` queries a saved snapshot with no stream input at
all.

``topk``, ``estimate``, and ``maxchange`` accept ``--metrics-out PATH``
to collect runtime metrics (``repro.observability``) — sketch updates,
position-cache hit rates, heap churn — and dump them as JSON or
Prometheus exposition text on exit.

Examples::

    repro topk --input queries.txt --k 10
    repro topk --input queries.txt --save-state day.rcs --checkpoint-every 100000
    repro estimate --sketch day.rcs alpha beta
    repro store diff day1.rcs day2.rcs --items alpha beta --k 5
    repro maxchange --before week1.txt --after week2.txt --k 5
    repro experiment table1
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections.abc import Callable, Hashable, Sequence
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from repro.cluster.coordinator import ClusterClient
    from repro.service.client import ServiceClient
    from repro.service.server import SketchServer
    from repro.service.tables import TableSpec

    _QueryClient = ServiceClient | ClusterClient

from repro.core.maxchange import MaxChangeFinder
from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.experiments.report import format_table
from repro.experiments.run_all import EXPERIMENT_SEQUENCE
from repro.observability import (
    MetricsRegistry,
    set_registry,
    write_json,
    write_prometheus,
)
from repro.store import (
    CheckpointManager,
    SketchArchive,
    StoreError,
    inspect as inspect_snapshot,
    load as load_snapshot,
    load_with_meta,
    save as save_snapshot,
)
from repro.streams.io import StreamFormatError, TextStreamReader, iter_chunks

EXPERIMENTS = (
    *(name for __, name in EXPERIMENT_SEQUENCE),
    "run_all",
)


def _add_sketch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=int, default=5,
                        help="sketch rows t (default 5)")
    parser.add_argument("--width", type=int, default=512,
                        help="sketch counters per row b (default 512)")
    parser.add_argument("--seed", type=int, default=0,
                        help="hash seed (default 0)")
    parser.add_argument("--int-keys", action="store_true",
                        help="parse stream lines as integers")


def _add_state_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--save-state", metavar="PATH", default=None,
        help="snapshot the summary to PATH (.rcs) when the stream ends; "
             "atomic, checksummed, exact (see docs/persistence.md)",
    )
    parser.add_argument(
        "--checkpoint-every", metavar="N", type=int, default=None,
        help="with --save-state: also snapshot every N stream items, so "
             "a killed run can --resume from the last checkpoint",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="restore the summary from a snapshot and skip the stream "
             "prefix it already consumed (requires the same input "
             "stream); sketch dimension flags are ignored — the snapshot "
             "carries them",
    )


def _add_metrics_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="collect runtime metrics (sketch updates, position-cache "
             "hits/misses, heap churn) and write them to PATH on exit; "
             "without this flag the no-op registry keeps instrumentation "
             "overhead near zero",
    )
    parser.add_argument(
        "--metrics-format", choices=("json", "prometheus"), default=None,
        help="metrics file format (default: inferred from the --metrics-out "
             "extension, .prom/.txt = prometheus, else json)",
    )


def _run_with_metrics(
    args: argparse.Namespace, command: Callable[[argparse.Namespace], int]
) -> int:
    """Run ``command(args)``, exporting metrics when ``--metrics-out`` asks.

    The collecting registry is installed *before* the command builds its
    sketches/trackers (handles are captured at construction time) and
    restored afterwards, so library callers and tests never see a CLI
    registry leak.
    """
    if getattr(args, "metrics_out", None) is None:
        return command(args)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        code = command(args)
    finally:
        set_registry(previous)
    fmt = args.metrics_format
    if fmt is None:
        suffix = args.metrics_out.rsplit(".", 1)[-1].lower()
        fmt = "prometheus" if suffix in ("prom", "txt") else "json"
    if fmt == "prometheus":
        write_prometheus(registry, args.metrics_out)
    else:
        write_json(registry, args.metrics_out)
    print(f"metrics: wrote {fmt} to {args.metrics_out}")
    return code


def _load(path: str, int_keys: bool) -> TextStreamReader:
    """Open a stream file as a lazy, re-iterable reader.

    The file is never materialized in memory: single-pass commands consume
    it line by line, and the two-pass commands re-open it per pass.
    """
    return TextStreamReader(path, as_int=int_keys)


#: Exit-code convention, uniform across every subcommand.
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the repo convention reserves 2
    for data errors, so flag problems exit :data:`EXIT_USAGE` instead.
    Subparsers inherit this class automatically."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    """Report a data error (bad input, mismatched snapshots, I/O)."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_DATA


def _usage_fail(message: str) -> int:
    """Report a usage error (flag combinations argparse cannot check)."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_state_flags(args: argparse.Namespace) -> str | None:
    """Validate the persistence flag combinations; returns an error or None."""
    if args.checkpoint_every is not None and args.save_state is None:
        return "--checkpoint-every requires --save-state (the checkpoint path)"
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        return "--checkpoint-every must be at least 1"
    return None


def _restore_items_consumed(meta: dict[str, object], path: str) -> int:
    consumed = meta.get("items_consumed", 0)
    if not isinstance(consumed, int) or consumed < 0:
        raise StoreError(
            f"{path} does not record a valid items_consumed count; it was "
            "not written by --save-state"
        )
    return consumed


def _ingest_with_state(
    summary: TopKTracker | CountSketch,
    args: argparse.Namespace,
    stream: TextStreamReader,
    consumed: int,
) -> None:
    """Feed the unconsumed stream tail into ``summary`` in
    ``update_batch`` steps of :data:`~repro.streams.io.DEFAULT_CHUNK_SIZE`
    records, honoring ``--save-state`` / ``--checkpoint-every``."""
    source = itertools.islice(stream, consumed, None)
    if args.save_state and args.checkpoint_every is not None:
        manager = CheckpointManager(
            summary, args.save_state,
            every_items=args.checkpoint_every, items_consumed=consumed,
        )
        manager.extend(source)
        print(
            f"state: {manager.checkpoints_written} snapshot(s) -> "
            f"{args.save_state}"
        )
        return
    for chunk in iter_chunks(source):
        summary.update_batch(chunk)
        consumed += len(chunk)
    if args.save_state:
        save_snapshot(
            summary, args.save_state, meta={"items_consumed": consumed}
        )
        print(f"state: snapshot -> {args.save_state}")


def _cmd_topk(args: argparse.Namespace) -> int:
    problem = _check_state_flags(args)
    if problem is not None:
        return _usage_fail(problem)
    consumed = 0
    if args.resume:
        loaded, meta = load_with_meta(args.resume)
        if not isinstance(loaded, TopKTracker):
            return _fail(
                f"{args.resume} holds a "
                f"{type(loaded).__name__}, not the TopKTracker "
                "snapshot topk --resume needs"
            )
        tracker = loaded
        consumed = _restore_items_consumed(meta, args.resume)
    else:
        tracker = TopKTracker(args.k, depth=args.depth,
                              width=args.width, seed=args.seed)
    _ingest_with_state(tracker, args, _load(args.input, args.int_keys),
                       consumed)
    rows = [
        [rank, str(item), count]
        for rank, (item, count) in enumerate(tracker.top(), start=1)
    ]
    print(format_table(
        ["rank", "item", "approx count"], rows,
        title=f"top-{args.k} of {args.input} "
              f"({tracker.items_processed} items)",
    ))
    print(f"space: {tracker.counters_used()} counters, "
          f"{tracker.items_stored()} stored items")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    queries = [int(q) if args.int_keys else q for q in args.items]
    if args.sketch is not None:
        # Query a saved snapshot directly: no stream input involved.
        if args.input or args.resume or args.save_state:
            return _usage_fail(
                "--sketch queries a saved snapshot; it cannot be combined "
                "with --input/--resume/--save-state"
            )
        summary_obj = load_snapshot(args.sketch)
        rows = [[str(q), summary_obj.estimate(q)] for q in queries]
        print(format_table(["item", "estimate"], rows,
                           title=f"estimates from snapshot {args.sketch}"))
        return 0
    if args.input is None:
        return _usage_fail("provide --input (a stream file) or --sketch (a "
                           "saved snapshot)")
    problem = _check_state_flags(args)
    if problem is not None:
        return _usage_fail(problem)
    consumed = 0
    if args.resume:
        loaded, meta = load_with_meta(args.resume)
        if not isinstance(loaded, CountSketch):
            return _fail(
                f"{args.resume} holds a {type(loaded).__name__}, not "
                "the CountSketch snapshot estimate --resume needs"
            )
        sketch = loaded
        consumed = _restore_items_consumed(meta, args.resume)
    else:
        sketch = CountSketch(args.depth, args.width, seed=args.seed)
    _ingest_with_state(sketch, args, _load(args.input, args.int_keys),
                       consumed)
    rows = [[str(q), sketch.estimate(q)] for q in queries]
    print(format_table(["item", "estimate"], rows,
                       title=f"estimates over {args.input}"))
    return 0


def _cmd_maxchange(args: argparse.Namespace) -> int:
    before = _load(args.before, args.int_keys)
    after = _load(args.after, args.int_keys)
    finder = MaxChangeFinder(args.l, depth=args.depth, width=args.width,
                             seed=args.seed)
    finder.first_pass(before, after)
    finder.second_pass(before, after)
    rows = [
        [str(r.item), r.count_before, r.count_after, r.change,
         r.estimated_change]
        for r in finder.report(args.k)
    ]
    print(format_table(
        ["item", "before", "after", "change", "sketch estimate"], rows,
        title=f"top-{args.k} changes {args.before} -> {args.after}",
    ))
    return 0


def _cmd_percent_change(args: argparse.Namespace) -> int:
    from repro.core.relative_change import RelativeChangeFinder

    before = _load(args.before, args.int_keys)
    after = _load(args.after, args.int_keys)
    finder = RelativeChangeFinder(
        args.l, floor=args.floor, depth=args.depth, width=args.width,
        seed=args.seed,
    )
    finder.first_pass(before, after)
    finder.second_pass(before, after)
    rows = [
        [str(r.item), r.count_before, r.count_after,
         f"{r.percent_change:+.1%}"]
        for r in finder.report(args.k, min_after=args.min_after)
    ]
    print(format_table(
        ["item", "before", "after", "percent change"], rows,
        title=(
            f"top-{args.k} percent changes {args.before} -> {args.after} "
            f"(floor={args.floor})"
        ),
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main()
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    for path in args.paths:
        info = inspect_snapshot(path)
        print(f"{path}:")
        print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    from repro.core.sparse import SparseCountSketch

    if len(args.inputs) < 2:
        return _usage_fail("merge needs at least two input snapshots")
    mergeable = (CountSketch, SparseCountSketch)
    merged = load_snapshot(args.inputs[0])
    if not isinstance(merged, mergeable):
        return _fail(
            f"{args.inputs[0]} holds a {type(merged).__name__}; merge "
            "supports plain sketches (dense, sparse, vectorized)"
        )
    for path in args.inputs[1:]:
        other = load_snapshot(path)
        if type(other) is not type(merged):
            return _fail(
                f"cannot merge {type(other).__name__} ({path}) into "
                f"{type(merged).__name__} ({args.inputs[0]})"
            )
        try:
            merged.merge(other)
        except ValueError as error:
            return _fail(f"{path}: {error}")
    written = save_snapshot(merged, args.out)
    print(
        f"merged {len(args.inputs)} snapshots -> {args.out} "
        f"({written} bytes, total_weight={merged.total_weight})"
    )
    return 0


def _diff_rows(
    before: CountSketch, after: CountSketch,
    items: Sequence[Hashable], k: int,
) -> list[list[object]]:
    difference = after - before
    scored = sorted(
        (
            (item, before.estimate(item), after.estimate(item),
             difference.estimate(item))
            for item in dict.fromkeys(items)
        ),
        key=lambda row: (-abs(row[3]), repr(row[0])),
    )
    return [
        [str(item), est_before, est_after, change]
        for item, est_before, est_after, change in scored[:k]
    ]


def _cmd_store_diff(args: argparse.Namespace) -> int:
    items = [int(q) if args.int_keys else q for q in args.items]
    if args.archive is not None:
        try:
            epoch_a, epoch_b = int(args.before), int(args.after)
        except ValueError:
            return _usage_fail(
                "with --archive, BEFORE and AFTER are epoch indices"
            )
        archive = SketchArchive(args.archive)
        entries = archive.diff(
            epoch_a, epoch_b, k=args.k, items=items or None
        )
        rows: list[list[object]] = [
            [str(e.item), e.estimate_before, e.estimate_after,
             e.estimated_change]
            for e in entries
        ]
        title = (
            f"top-{args.k} estimated changes: epoch {epoch_a} -> "
            f"{epoch_b} of {args.archive}"
        )
    else:
        if not items:
            return _usage_fail(
                "provide --items to score (snapshot diffs can only rank "
                "items somebody names; --archive mode has stored "
                "candidate lists)"
            )
        before = load_snapshot(args.before)
        after = load_snapshot(args.after)
        for path, sketch in ((args.before, before), (args.after, after)):
            if not isinstance(sketch, CountSketch):
                return _fail(
                    f"{path} holds a {type(sketch).__name__}; diff needs "
                    "two dense Count Sketch snapshots sharing one hash "
                    "family"
                )
        if not before.compatible_with(after):
            return _fail(
                "snapshots are not hash-compatible: differences are only "
                "meaningful between sketches built with the same "
                "(depth, width, seed)"
            )
        rows = _diff_rows(before, after, items, args.k)
        title = f"top-{args.k} estimated changes {args.before} -> {args.after}"
    print(format_table(
        ["item", "before est", "after est", "estimated change"], rows,
        title=title,
    ))
    return 0


def _parse_table_flag(value: str) -> TableSpec:
    """Parse ``NAME[:KIND[:key=val,...]]`` into a ``TableSpec``.

    Examples: ``queries``, ``queries:topk``,
    ``queries:topk:k=20,depth=6,width=1024,seed=7``.
    """
    from repro.service.tables import TableSpec

    parts = value.split(":")
    if len(parts) > 3:
        raise ValueError(
            f"malformed --table {value!r}; use NAME[:KIND[:key=val,...]]")
    payload: dict[str, object] = {"name": parts[0]}
    if len(parts) > 1 and parts[1]:
        payload["kind"] = parts[1]
    if len(parts) > 2 and parts[2]:
        for pair in parts[2].split(","):
            key, sep, raw = pair.partition("=")
            if not sep or not key or not raw:
                raise ValueError(
                    f"malformed table option {pair!r} in --table "
                    f"{value!r}; use key=value"
                )
            try:
                payload[key] = int(raw)
            except ValueError:
                raise ValueError(
                    f"table option {key!r} needs an integer value, "
                    f"got {raw!r}"
                ) from None
    try:
        return TableSpec.from_dict(payload)
    except ValueError as error:
        raise ValueError(f"--table {value!r}: {error}") from None


def _parse_weight_flag(value: str) -> tuple[str, int]:
    """Parse one ``--table-weight NAME=W`` flag."""
    name, sep, raw = value.partition("=")
    if not sep or not name or not raw:
        raise ValueError(
            f"malformed --table-weight {value!r}; use NAME=WEIGHT"
        )
    try:
        return name, int(raw)
    except ValueError:
        raise ValueError(
            f"--table-weight {value!r}: weight must be an integer, "
            f"got {raw!r}"
        ) from None


async def _serve_until_stopped(
    server: SketchServer, host: str, port: int
) -> None:
    import asyncio
    import signal

    bound_host, bound_port = await server.start(host, port)
    print(f"serving on {bound_host}:{bound_port}", flush=True)
    for table in server.tables.values():
        print(
            f"table {table.spec.name}: kind={table.spec.kind} "
            f"records_applied={table.records_applied}",
            flush=True,
        )
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum, server.request_stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await server.wait_stopped()
    print("serve: graceful stop complete", flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.observability import get_registry, metrics_enabled
    from repro.service.server import SketchServer

    try:
        specs = [_parse_table_flag(value) for value in args.table]
    except ValueError as error:
        return _usage_fail(str(error))
    if not specs:
        return _usage_fail(
            "provide at least one --table NAME[:KIND[:key=val,...]]")
    if (
        args.checkpoint_every is not None or
        args.checkpoint_every_seconds is not None
    ) and args.checkpoint_dir is None:
        return _usage_fail(
            "--checkpoint-every/--checkpoint-every-seconds require "
            "--checkpoint-dir (where should the snapshots go?)"
        )
    try:
        weights = tuple(
            _parse_weight_flag(value) for value in args.table_weight)
    except ValueError as error:
        return _usage_fail(str(error))
    limits = None
    if (
        args.max_connections is not None
        or args.ingest_rate is not None
        or args.ingest_burst is not None
        or args.query_rate is not None
        or args.query_burst is not None
        or args.fair_quantum is not None
        or weights
    ):
        from repro.service.limits import ServiceLimits

        try:
            limits = ServiceLimits(
                max_connections=args.max_connections,
                ingest_rate=args.ingest_rate,
                ingest_burst=args.ingest_burst,
                query_rate=args.query_rate,
                query_burst=args.query_burst,
                fair_quantum=args.fair_quantum,
                weights=weights,
            )
        except ValueError as error:
            return _usage_fail(str(error))
    registry = get_registry() if metrics_enabled() else None
    try:
        server = SketchServer(
            specs,
            queue_capacity=args.queue_capacity,
            max_coalesce=args.max_batch,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_items=args.checkpoint_every,
            checkpoint_every_seconds=args.checkpoint_every_seconds,
            registry=registry,
            limits=limits,
        )
    except ValueError as error:
        return _usage_fail(str(error))
    asyncio.run(_serve_until_stopped(server, args.host, args.port))
    return EXIT_OK


def _cmd_traffic(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import AsyncServiceClient, ServiceError
    from repro.traffic import TrafficReport, TrafficRunner, WorkloadSpec

    try:
        spec = WorkloadSpec(
            tenants=args.tenants,
            keys_per_tenant=args.keys_per_tenant,
            zipf_key=args.zipf_key,
            zipf_tenant=args.zipf_tenant,
            query_fraction=args.query_fraction,
            batch_size=args.batch_size,
            query_items=args.query_items,
            arrival=args.arrival,
            rate=args.rate,
            burst_factor=args.burst_factor,
            burst_period=args.burst_period,
            seed=args.seed,
            table_prefix=args.table_prefix,
            table_kind=args.table_kind,
            depth=args.depth,
            width=args.width,
        )
        runner = TrafficRunner(spec, clients=args.clients,
                               duration=args.duration,
                               max_inflight=args.max_inflight)
    except ValueError as error:
        return _usage_fail(str(error))

    if args.cluster:
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.fleet import read_cluster_spec

        try:
            fleet = read_cluster_spec(args.cluster)
        except (OSError, ValueError) as error:
            return _fail(str(error))

        def connect() -> object:
            return ClusterCoordinator.connect(fleet.endpoints)
    else:

        def connect() -> object:
            return AsyncServiceClient.connect(args.host, args.port)

    async def drive() -> TrafficReport:
        return await runner.run(connect, setup=not args.no_setup,
                                probe=not args.no_probe,
                                verify=not args.no_verify)

    try:
        report = asyncio.run(drive())
    except (ServiceError, OSError) as error:
        return _fail(str(error))

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"traffic: {report.total_ops} ops in {report.duration:.2f}s "
            f"({report.throughput:.0f} ops/s), "
            f"{report.total_errors} refused/failed, "
            f"{report.skipped} skipped at the inflight cap"
        )
        for kind in sorted(report.latency):
            stats = report.latency[kind]
            print(
                f"  {kind}: n={stats['count']} "
                f"p50={stats['p50_ms']:.2f}ms "
                f"p99={stats['p99_ms']:.2f}ms "
                f"p999={stats['p999_ms']:.2f}ms"
            )
        for code in sorted(report.errors):
            print(f"  refused {code}: {report.errors[code]}")
        print(f"  tenant fairness (min/max): {report.fairness_ratio:.3f}")
        if report.probe is not None:
            verdict = ("bit-equal" if report.probe["bit_equal"]
                       else "MISMATCH")
            print(
                f"  probe: {report.probe['keys_exact']}/"
                f"{report.probe['keys_checked']} keys exact ({verdict})"
            )
        if report.verification is not None:
            verdict = ("clean" if report.verification["no_silent_drops"]
                       else "SILENT DROPS")
            print(f"  acknowledged-vs-applied: {verdict}")
    if report.probe is not None and not report.probe["bit_equal"]:
        return _fail("probe estimates diverged from the offline summary")
    if (
        report.verification is not None
        and not report.verification["no_silent_drops"]
    ):
        return _fail("acknowledged records were not all applied")
    return EXIT_OK


def _connect_client(args: argparse.Namespace) -> _QueryClient:
    if getattr(args, "cluster", None):
        from repro.cluster.coordinator import ClusterClient
        from repro.cluster.fleet import read_cluster_spec

        spec = read_cluster_spec(args.cluster)
        return ClusterClient(spec.endpoints, timeout=args.timeout)
    from repro.service.client import ServiceClient

    return ServiceClient(args.host, args.port, timeout=args.timeout)


def _query_target(args: argparse.Namespace) -> str:
    cluster = getattr(args, "cluster", None)
    if cluster:
        return f"cluster {cluster}"
    return f"{args.host}:{args.port}"


def _cmd_query(args: argparse.Namespace) -> int:
    import concurrent.futures

    from repro.service.client import ServiceError

    try:
        client = _connect_client(args)
    except (ServiceError, OSError) as error:
        # Connection refusals surface as one documented line, never a
        # raw ConnectionRefusedError traceback.
        return _fail(str(error))
    try:
        return int(args.query_handler(client, args))
    except ServiceError as error:
        return _fail(str(error))
    except (TimeoutError, concurrent.futures.TimeoutError):
        return _fail(
            f"request to {_query_target(args)} timed out after "
            f"{args.timeout:.1f}s"
        )
    finally:
        client.close()


def _query_ping(client: _QueryClient, args: argparse.Namespace) -> int:
    info = client.ping()
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def _query_create(client: _QueryClient, args: argparse.Namespace) -> int:
    try:
        spec = _parse_table_flag(args.table)
    except ValueError as error:
        return _usage_fail(str(error))
    try:
        created = client.create_table(spec)
    except ValueError as error:
        # e.g. a window table aimed at a cluster: not shardable.
        return _usage_fail(str(error))
    verb = "created" if created else "already exists (same spec)"
    print(f"table {spec.name!r}: {verb}")
    return EXIT_OK


def _query_ingest(client: _QueryClient, args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        return _usage_fail("--batch-size must be at least 1")
    if args.skip < 0:
        return _usage_fail("--skip cannot be negative")
    source = itertools.islice(_load(args.input, args.int_keys), args.skip,
                              None)
    total = 0
    # wait=True applies each batch before the next send: natural flow
    # control, so a well-behaved producer never sees `overloaded`.
    for batch in iter_chunks(source, args.batch_size):
        client.ingest_items(args.table, batch, wait=True)
        total += len(batch)
    skipped = f" (skipped {args.skip})" if args.skip else ""
    print(f"ingested {total} records into {args.table!r}{skipped}")
    return EXIT_OK


def _query_estimate(client: _QueryClient, args: argparse.Namespace) -> int:
    queries = [int(q) if args.int_keys else q for q in args.items]
    estimates = client.estimate(args.table, queries)
    rows = [[str(item), value]
            for item, value in zip(queries, estimates, strict=True)]
    print(format_table(["item", "estimate"], rows,
                       title=f"live estimates from table {args.table!r}"))
    return EXIT_OK


def _query_topk(client: _QueryClient, args: argparse.Namespace) -> int:
    top = client.topk(args.table, args.k)
    rows = [
        [rank, str(item), count]
        for rank, (item, count) in enumerate(top, start=1)
    ]
    print(format_table(["rank", "item", "approx count"], rows,
                       title=f"live top-k of table {args.table!r}"))
    return EXIT_OK


def _query_stats(client: _QueryClient, args: argparse.Namespace) -> int:
    stats = client.stats(args.table)
    stats.pop("ok", None)
    stats.pop("id", None)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def _query_metrics(client: _QueryClient, args: argparse.Namespace) -> int:
    scraped = client.metrics(args.format)
    if isinstance(scraped, list):
        # Cluster scrape: one body per shard, labelled so a reader (or a
        # Prometheus file collector) can tell the shards apart.
        body = "".join(
            f"# shard {index}\n{shard_body}"
            + ("" if shard_body.endswith("\n") else "\n")
            for index, shard_body in enumerate(scraped)
        )
    else:
        body = scraped
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(body, encoding="utf-8")
        print(f"metrics: wrote {args.format} to {args.out}")
    else:
        print(body, end="" if body.endswith("\n") else "\n")
    return EXIT_OK


def _query_checkpoint(client: _QueryClient, args: argparse.Namespace) -> int:
    written = client.checkpoint(args.table)
    print(f"checkpoint: {written} bytes written")
    return EXIT_OK


def _query_shutdown(client: _QueryClient, args: argparse.Namespace) -> int:
    client.shutdown()
    print("server is stopping")
    return EXIT_OK


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster.fleet import (
        fleet_status,
        launch_fleet,
        stop_fleet,
        write_cluster_spec,
    )

    try:
        specs = [_parse_table_flag(value) for value in args.table]
    except ValueError as error:
        return _usage_fail(str(error))
    if not specs:
        return _usage_fail(
            "provide at least one --table NAME[:KIND[:key=val,...]]")
    for spec in specs:
        if spec.kind == "window":
            return _usage_fail(
                f"--table {spec.name}: window tables cannot be sharded "
                "(jumping-window rotation counts local arrivals); serve "
                "them from a single `repro serve` process"
            )
    if args.shards < 1:
        return _usage_fail("--shards must be at least 1")
    if (
        args.checkpoint_every is not None or
        args.checkpoint_every_seconds is not None
    ) and args.checkpoint_dir is None:
        return _usage_fail(
            "--checkpoint-every/--checkpoint-every-seconds require "
            "--checkpoint-dir (where should the snapshots go?)"
        )
    serve_args = ["--queue-capacity", str(args.queue_capacity),
                  "--max-batch", str(args.max_batch)]
    if args.checkpoint_every is not None:
        serve_args += ["--checkpoint-every", str(args.checkpoint_every)]
    if args.checkpoint_every_seconds is not None:
        serve_args += ["--checkpoint-every-seconds",
                       str(args.checkpoint_every_seconds)]

    shards = launch_fleet(
        args.shards, specs,
        host=args.host,
        checkpoint_root=args.checkpoint_dir,
        serve_args=serve_args,
    )
    stop_requested = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop_requested.set()

    previous = [signal.signal(signal.SIGINT, _request_stop),
                signal.signal(signal.SIGTERM, _request_stop)]
    try:
        write_cluster_spec(args.spec_out, [(s.host, s.port) for s in shards],
                           specs)
        print(f"cluster spec written to {args.spec_out}", flush=True)
        for status in fleet_status(shards):
            print(
                f"shard {status['index']}: serving on "
                f"{status['host']}:{status['port']} (pid {status['pid']})",
                flush=True,
            )
        dead_shard: int | None = None
        while not stop_requested.is_set():
            for shard in shards:
                if shard.process.poll() is not None:
                    dead_shard = shard.index
                    break
            if dead_shard is not None:
                break
            stop_requested.wait(0.5)
        codes = stop_fleet(shards)
        if dead_shard is not None:
            return _fail(
                f"shard {dead_shard} exited unexpectedly with code "
                f"{codes[dead_shard]}; stopped the rest of the fleet "
                "(resume with the same --checkpoint-dir to recover)"
            )
        print(f"cluster: graceful stop complete, exit codes {codes}",
              flush=True)
        return EXIT_OK
    finally:
        signal.signal(signal.SIGINT, previous[0])
        signal.signal(signal.SIGTERM, previous[1])


def _cmd_cluster_rebalance(args: argparse.Namespace) -> int:
    from repro.cluster.fleet import rebalance_cluster

    if args.shards < 1:
        return _usage_fail("--shards must be at least 1")
    merged = rebalance_cluster(args.src, args.out, args.shards)
    for name in sorted(merged):
        print(
            f"table {name!r}: merged {merged[name]} shard snapshot(s) "
            "onto shard 0"
        )
    print(
        f"rebalanced {args.src} -> {args.out} ({args.shards} shards); "
        f"start the new fleet with `repro cluster serve --shards "
        f"{args.shards} --checkpoint-dir {args.out} ...`"
    )
    return EXIT_OK


def _cmd_cache_simulate(args: argparse.Namespace) -> int:
    from repro.cache import (
        CachePolicy,
        FrequencySketch,
        TinyLFUCache,
        make_policy,
        shifting_hotset_trace,
        simulate,
        zipf_trace,
    )

    policies = list(dict.fromkeys(args.policy)) or ["lru", "lfu", "tinylfu"]
    capacities = list(dict.fromkeys(args.capacity)) or [1000]
    if args.requests < 1:
        return _usage_fail("--requests must be at least 1")
    if args.keys < 1:
        return _usage_fail("--keys must be at least 1")
    if args.phases < 1:
        return _usage_fail("--phases must be at least 1")
    snapshot_flags = args.save_sketch or args.load_sketch
    if snapshot_flags and "tinylfu" not in policies:
        return _usage_fail(
            "--save-sketch/--load-sketch concern the TinyLFU admission "
            "sketch; include tinylfu in --policy"
        )
    if snapshot_flags and len(capacities) != 1:
        return _usage_fail(
            "--save-sketch/--load-sketch need exactly one --capacity "
            "(which run's sketch would the snapshot belong to?)"
        )
    if args.trace == "shifting":
        trace = shifting_hotset_trace(
            args.requests, args.keys, args.zipf, seed=args.seed,
            phases=args.phases,
        )
    else:
        trace = zipf_trace(args.requests, args.keys, args.zipf,
                           seed=args.seed)
    rows: list[list[object]] = []
    saved_tinylfu: TinyLFUCache | None = None
    for capacity in capacities:
        for name in policies:
            try:
                if name == "tinylfu" and args.load_sketch:
                    oracle = FrequencySketch.load(args.load_sketch)
                    policy: CachePolicy = TinyLFUCache(
                        capacity, frequency=oracle)
                else:
                    policy = make_policy(name, capacity, seed=args.seed)
            except (TypeError, ValueError) as error:
                return _fail(str(error))
            result = simulate(policy, trace)
            if isinstance(policy, TinyLFUCache):
                saved_tinylfu = policy
            rows.append([
                result.policy, result.capacity, result.requests,
                result.hits, f"{result.hit_ratio:.4f}",
            ])
    print(format_table(
        ["policy", "capacity", "requests", "hits", "hit ratio"], rows,
        title=(
            f"cache simulation: {args.trace} trace "
            f"(n={args.requests}, m={args.keys}, z={args.zipf}, "
            f"seed={args.seed})"
        ),
    ))
    if args.save_sketch and saved_tinylfu is not None:
        written = saved_tinylfu.frequency.save(args.save_sketch)
        print(
            f"admission sketch: snapshot -> {args.save_sketch} "
            f"({written} bytes)"
        )
    return EXIT_OK


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.cache import FrequencySketch

    try:
        oracle = FrequencySketch.load(args.sketch)
    except (TypeError, ValueError) as error:
        return _fail(str(error))
    sketch = oracle.sketch
    print(json.dumps(
        {
            "sample_size": oracle.sample_size,
            "samples": oracle.samples,
            "resets": oracle.resets,
            "doorkeeper_bits": oracle.doorkeeper.num_bits,
            "doorkeeper_probes": oracle.doorkeeper.probes,
            "sketch_depth": sketch.depth,
            "sketch_width": sketch.width,
            "sketch_total_weight": sketch.total_weight,
        },
        indent=2, sort_keys=True,
    ))
    if args.items:
        queries = [int(q) if args.int_keys else q for q in args.items]
        rows = [[str(q), oracle.estimate(q)] for q in queries]
        print(format_table(
            ["item", "admission estimate"], rows,
            title=f"decayed frequencies from {args.sketch}",
        ))
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import main as lint_main

    argv: list[str] = []
    if args.list_rules:
        argv.append("--list-rules")
    if args.format != "human":
        argv += ["--format", args.format]
    if args.select is not None:
        argv += ["--select", args.select]
    if args.ignore is not None:
        argv += ["--ignore", args.ignore]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    if args.include_fixtures:
        argv.append("--include-fixtures")
    argv += list(args.paths)
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = _Parser(
        prog="repro",
        description="Count Sketch frequent-items toolkit "
                    "(Charikar, Chen & Farach-Colton reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    topk = subparsers.add_parser(
        "topk", help="approximate top-k items of a stream file"
    )
    topk.add_argument("--input", required=True, help="stream file, one item per line")
    topk.add_argument("--k", type=int, default=10, help="items to report")
    _add_sketch_arguments(topk)
    _add_state_arguments(topk)
    _add_metrics_arguments(topk)
    topk.set_defaults(handler=_cmd_topk)

    estimate = subparsers.add_parser(
        "estimate", help="sketch a stream and estimate given items' counts"
    )
    estimate.add_argument("--input", default=None,
                          help="stream file, one item per line (omit when "
                               "querying a snapshot with --sketch)")
    estimate.add_argument("--sketch", metavar="PATH", default=None,
                          help="estimate from a saved .rcs snapshot "
                               "instead of ingesting a stream")
    estimate.add_argument("items", nargs="+", help="items to estimate")
    _add_sketch_arguments(estimate)
    _add_state_arguments(estimate)
    _add_metrics_arguments(estimate)
    estimate.set_defaults(handler=_cmd_estimate)

    maxchange = subparsers.add_parser(
        "maxchange", help="items with the largest count change (2 passes)"
    )
    maxchange.add_argument("--before", required=True, help="first stream file")
    maxchange.add_argument("--after", required=True, help="second stream file")
    maxchange.add_argument("--k", type=int, default=10)
    maxchange.add_argument("--l", type=int, default=40,
                           help="exact-count candidate set size")
    _add_sketch_arguments(maxchange)
    _add_metrics_arguments(maxchange)
    maxchange.set_defaults(handler=_cmd_maxchange)

    percent = subparsers.add_parser(
        "percent-change",
        help="items with the largest percent change (the §5 open problem)",
    )
    percent.add_argument("--before", required=True)
    percent.add_argument("--after", required=True)
    percent.add_argument("--k", type=int, default=10)
    percent.add_argument("--l", type=int, default=40)
    percent.add_argument("--floor", type=float, default=8.0,
                         help="smoothing floor balancing absolute vs "
                              "relative change")
    percent.add_argument("--min-after", type=int, default=0,
                         help="require this many occurrences in the "
                              "second stream")
    _add_sketch_arguments(percent)
    percent.set_defaults(handler=_cmd_percent_change)

    experiment = subparsers.add_parser(
        "experiment", help="run a paper experiment and print its report"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.set_defaults(handler=_cmd_experiment)

    store = subparsers.add_parser(
        "store", help="inspect, merge, and diff durable .rcs snapshots"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_inspect = store_sub.add_parser(
        "inspect", help="describe snapshot files without rebuilding them"
    )
    store_inspect.add_argument("paths", nargs="+",
                               help="snapshot files (.rcs)")
    store_inspect.set_defaults(handler=_cmd_store_inspect)

    store_merge = store_sub.add_parser(
        "merge",
        help="merge hash-compatible sketch snapshots (exact by §3.2 "
             "linearity)",
    )
    store_merge.add_argument("--out", required=True,
                             help="destination snapshot path")
    store_merge.add_argument("inputs", nargs="+",
                             help="two or more snapshots to merge")
    store_merge.set_defaults(handler=_cmd_store_merge)

    store_diff = store_sub.add_parser(
        "diff",
        help="estimated per-item change between two snapshots (or two "
             "archive epochs with --archive)",
    )
    store_diff.add_argument("before",
                            help="snapshot path (or epoch index with "
                                 "--archive)")
    store_diff.add_argument("after",
                            help="snapshot path (or epoch index with "
                                 "--archive)")
    store_diff.add_argument("--archive", metavar="DIR", default=None,
                            help="treat BEFORE/AFTER as epoch indices of "
                                 "this sketch archive")
    store_diff.add_argument("--items", nargs="*", default=[],
                            help="candidate items to score (default with "
                                 "--archive: the epochs' stored "
                                 "candidates)")
    store_diff.add_argument("--k", type=int, default=10,
                            help="changes to report (default 10)")
    store_diff.add_argument("--int-keys", action="store_true",
                            help="parse --items as integers")
    store_diff.set_defaults(handler=_cmd_store_diff)

    serve = subparsers.add_parser(
        "serve",
        help="run the online sketch server (repro.service): live tables "
             "ingesting over TCP while answering estimate/top-k queries",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9431,
                       help="bind port; 0 picks a free port and prints it "
                            "(default 9431)")
    serve.add_argument(
        "--table", action="append", default=[],
        metavar="NAME[:KIND[:key=val,...]]",
        help="table to serve (repeatable); KIND is sketch, vectorized, "
             "topk, or window; options: depth, width, seed, k, window, "
             "buckets — e.g. queries:topk:k=20,depth=6,width=1024",
    )
    serve.add_argument("--queue-capacity", type=int, default=256,
                       help="pending ingest batches per table before "
                            "producers get an explicit `overloaded` "
                            "response (default 256)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="ingest batches coalesced per apply call "
                            "(default 64)")
    serve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="persist every table under DIR and resume "
                            "bit-for-bit on restart")
    serve.add_argument("--checkpoint-every", metavar="N", type=int,
                       default=None,
                       help="with --checkpoint-dir: snapshot a table "
                            "after N applied records")
    serve.add_argument("--checkpoint-every-seconds", metavar="T",
                       type=float, default=None,
                       help="with --checkpoint-dir: snapshot a table "
                            "after T seconds (default 30 when no trigger "
                            "is given)")
    serve.add_argument("--max-connections", type=int, default=None,
                       metavar="N",
                       help="open-connection cap; excess connections get "
                            "one `overloaded` frame and are closed "
                            "(default: unlimited)")
    serve.add_argument("--ingest-rate", type=float, default=None,
                       metavar="R",
                       help="per-table ingest quota in records/second; "
                            "refusals answer `quota_exceeded` "
                            "(default: unlimited)")
    serve.add_argument("--ingest-burst", type=int, default=None,
                       metavar="N",
                       help="ingest token-bucket capacity in records "
                            "(default: one second of --ingest-rate)")
    serve.add_argument("--query-rate", type=float, default=None,
                       metavar="R",
                       help="per-table query quota in queries/second "
                            "(default: unlimited)")
    serve.add_argument("--query-burst", type=int, default=None,
                       metavar="N",
                       help="query token-bucket capacity "
                            "(default: one second of --query-rate)")
    serve.add_argument("--fair-quantum", type=int, default=None,
                       metavar="N",
                       help="base records per weighted-fair applier turn; "
                            "enables round-robin draining across tables "
                            "(default: off)")
    serve.add_argument("--table-weight", action="append", default=[],
                       metavar="NAME=W",
                       help="fairness weight for a table (repeatable; "
                            "unlisted tables weigh 1; needs "
                            "--fair-quantum)")
    _add_metrics_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    query = subparsers.add_parser(
        "query", help="talk to a running `repro serve` instance"
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1",
                            help="server address (default 127.0.0.1)")
    connection.add_argument("--port", type=int, default=9431,
                            help="server port (default 9431)")
    connection.add_argument("--timeout", type=float, default=30.0,
                            help="per-request timeout in seconds "
                                 "(default 30)")
    connection.add_argument("--cluster", metavar="SPEC", default=None,
                            help="query a sharded fleet instead of one "
                                 "server: path to the cluster spec JSON "
                                 "written by `repro cluster serve` "
                                 "(overrides --host/--port)")

    query_ping = query_sub.add_parser(
        "ping", parents=[connection],
        help="server liveness and protocol version")
    query_ping.set_defaults(handler=_cmd_query, query_handler=_query_ping)

    query_create = query_sub.add_parser(
        "create", parents=[connection],
        help="create a table on the running server")
    query_create.add_argument("--table", required=True,
                              metavar="NAME[:KIND[:key=val,...]]",
                              help="table spec (same syntax as serve "
                                   "--table)")
    query_create.set_defaults(handler=_cmd_query,
                              query_handler=_query_create)

    query_ingest = query_sub.add_parser(
        "ingest", parents=[connection],
        help="stream a file into a live table (batched, flow-controlled)")
    query_ingest.add_argument("--table", required=True)
    query_ingest.add_argument("--input", required=True,
                              help="stream file, one item per line")
    query_ingest.add_argument("--int-keys", action="store_true",
                              help="parse stream lines as integers")
    query_ingest.add_argument("--batch-size", type=int, default=1000,
                              help="records per ingest request "
                                   "(default 1000)")
    query_ingest.add_argument("--skip", type=int, default=0,
                              metavar="N",
                              help="skip the first N records (resume a "
                                   "producer: use records_applied from "
                                   "`repro query stats`)")
    query_ingest.set_defaults(handler=_cmd_query,
                              query_handler=_query_ingest)

    query_estimate = query_sub.add_parser(
        "estimate", parents=[connection],
        help="frequency estimates from a live table")
    query_estimate.add_argument("--table", required=True)
    query_estimate.add_argument("items", nargs="+",
                                help="items to estimate")
    query_estimate.add_argument("--int-keys", action="store_true",
                                help="parse items as integers")
    query_estimate.set_defaults(handler=_cmd_query,
                                query_handler=_query_estimate)

    query_topk = query_sub.add_parser(
        "topk", parents=[connection],
        help="current top-k of a live topk table")
    query_topk.add_argument("--table", required=True)
    query_topk.add_argument("--k", type=int, default=None,
                            help="items to report (default: the table's "
                                 "k)")
    query_topk.set_defaults(handler=_cmd_query, query_handler=_query_topk)

    query_stats = query_sub.add_parser(
        "stats", parents=[connection],
        help="per-table (or server-wide) counters and queue state")
    query_stats.add_argument("--table", default=None)
    query_stats.set_defaults(handler=_cmd_query,
                             query_handler=_query_stats)

    query_metrics = query_sub.add_parser(
        "metrics", parents=[connection],
        help="scrape the server's metrics export")
    query_metrics.add_argument("--format",
                               choices=("prometheus", "json"),
                               default="prometheus")
    query_metrics.add_argument("--out", metavar="PATH", default=None,
                               help="write to PATH instead of stdout")
    query_metrics.set_defaults(handler=_cmd_query,
                               query_handler=_query_metrics)

    query_checkpoint = query_sub.add_parser(
        "checkpoint", parents=[connection],
        help="force a durability snapshot now")
    query_checkpoint.add_argument("--table", default=None)
    query_checkpoint.set_defaults(handler=_cmd_query,
                                  query_handler=_query_checkpoint)

    query_shutdown = query_sub.add_parser(
        "shutdown", parents=[connection],
        help="stop the server gracefully (drain, snapshot, exit)")
    query_shutdown.set_defaults(handler=_cmd_query,
                                query_handler=_query_shutdown)

    cluster = subparsers.add_parser(
        "cluster",
        help="run or re-shape a sharded fleet of sketch servers "
             "(repro.cluster): answers stay bit-equal to one offline "
             "sketch by §3.2 linearity",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)

    cluster_serve = cluster_sub.add_parser(
        "serve",
        help="launch N shard servers on free ports, write the cluster "
             "spec, and supervise until SIGTERM",
    )
    cluster_serve.add_argument("--shards", type=int, default=2,
                               help="fleet size (default 2)")
    cluster_serve.add_argument("--host", default="127.0.0.1",
                               help="bind address for every shard "
                                    "(default 127.0.0.1)")
    cluster_serve.add_argument(
        "--table", action="append", default=[],
        metavar="NAME[:KIND[:key=val,...]]",
        help="table every shard serves (repeatable; same syntax as "
             "serve --table; window tables cannot be sharded)",
    )
    cluster_serve.add_argument(
        "--spec-out", metavar="PATH", default="cluster.json",
        help="where to write the cluster spec JSON that `repro query "
             "--cluster` reads (default ./cluster.json)",
    )
    cluster_serve.add_argument(
        "--checkpoint-dir", metavar="ROOT", default=None,
        help="persist the fleet under ROOT (manifest pins the shard "
             "count and table specs; shard i resumes from "
             "ROOT/shard-00i)",
    )
    cluster_serve.add_argument("--checkpoint-every", metavar="N",
                               type=int, default=None,
                               help="with --checkpoint-dir: snapshot a "
                                    "table after N applied records")
    cluster_serve.add_argument("--checkpoint-every-seconds", metavar="T",
                               type=float, default=None,
                               help="with --checkpoint-dir: snapshot a "
                                    "table after T seconds")
    cluster_serve.add_argument("--queue-capacity", type=int, default=256,
                               help="per-shard pending ingest batches "
                                    "(default 256)")
    cluster_serve.add_argument("--max-batch", type=int, default=64,
                               help="per-shard ingest coalescing limit "
                                    "(default 64)")
    cluster_serve.set_defaults(handler=_cmd_cluster_serve)

    cluster_rebalance = cluster_sub.add_parser(
        "rebalance",
        help="re-shape a cluster checkpoint to a new shard count by "
             "exact snapshot re-merge (offline; fleet must be stopped)",
    )
    cluster_rebalance.add_argument("--src", required=True, metavar="ROOT",
                                   help="existing cluster checkpoint "
                                        "root")
    cluster_rebalance.add_argument("--out", required=True, metavar="ROOT",
                                   help="fresh destination checkpoint "
                                        "root")
    cluster_rebalance.add_argument("--shards", type=int, required=True,
                                   help="the new fleet size")
    cluster_rebalance.set_defaults(handler=_cmd_cluster_rebalance)

    traffic = subparsers.add_parser(
        "traffic",
        help="drive a seeded multi-tenant workload against a live "
             "server or cluster (repro.traffic) and report saturation "
             "throughput, tail latency, shed counts, and fairness",
    )
    traffic.add_argument("--host", default="127.0.0.1",
                         help="server address (default 127.0.0.1)")
    traffic.add_argument("--port", type=int, default=9431,
                         help="server port (default 9431)")
    traffic.add_argument("--cluster", metavar="SPEC", default=None,
                         help="drive a sharded fleet instead of one "
                              "server: path to the cluster spec JSON "
                              "(overrides --host/--port)")
    traffic.add_argument("--clients", type=int, default=4,
                         help="concurrent client connections (default 4)")
    traffic.add_argument("--duration", type=float, default=5.0,
                         help="seconds of load (default 5)")
    traffic.add_argument("--max-inflight", type=int, default=64,
                         help="open-loop ops outstanding per client "
                              "before arrivals are counted as skipped "
                              "(default 64)")
    traffic.add_argument("--tenants", type=int, default=4,
                         help="tenant tables (default 4)")
    traffic.add_argument("--keys-per-tenant", type=int, default=512,
                         help="distinct keys per tenant (default 512)")
    traffic.add_argument("--zipf-key", type=float, default=1.1,
                         help="Zipf skew of key popularity within a "
                              "tenant (default 1.1)")
    traffic.add_argument("--zipf-tenant", type=float, default=0.0,
                         help="Zipf skew across tenants; 0 is uniform, "
                              "larger concentrates load on tenant 0 "
                              "(default 0)")
    traffic.add_argument("--query-fraction", type=float, default=0.2,
                         help="fraction of ops that are estimate "
                              "queries (default 0.2)")
    traffic.add_argument("--batch-size", type=int, default=32,
                         help="records per ingest op (default 32)")
    traffic.add_argument("--query-items", type=int, default=8,
                         help="items per estimate op (default 8)")
    traffic.add_argument("--arrival",
                         choices=("closed", "poisson", "burst"),
                         default="closed",
                         help="arrival process (default closed-loop)")
    traffic.add_argument("--rate", type=float, default=0.0,
                         help="per-client ops/second for the open-loop "
                              "arrivals (required for poisson/burst)")
    traffic.add_argument("--burst-factor", type=float, default=4.0,
                         help="spike multiplier for --arrival burst "
                              "(default 4)")
    traffic.add_argument("--burst-period", type=float, default=1.0,
                         help="seconds per spike/quiet cycle for "
                              "--arrival burst (default 1)")
    traffic.add_argument("--seed", type=int, default=0,
                         help="workload seed (default 0)")
    traffic.add_argument("--table-prefix", default="tenant",
                         help="tenant table name prefix (default "
                              "'tenant')")
    traffic.add_argument("--table-kind",
                         choices=("sketch", "vectorized", "topk",
                                  "window"),
                         default="sketch",
                         help="summary kind for the tenant tables "
                              "(default sketch)")
    traffic.add_argument("--depth", type=int, default=5,
                         help="sketch depth for the tenant tables "
                              "(default 5)")
    traffic.add_argument("--width", type=int, default=256,
                         help="sketch width for the tenant tables "
                              "(default 256)")
    traffic.add_argument("--no-setup", action="store_true",
                         help="assume the tenant tables already exist")
    traffic.add_argument("--no-probe", action="store_true",
                         help="skip the mid-load exactness probe")
    traffic.add_argument("--no-verify", action="store_true",
                         help="skip the acknowledged-vs-applied check")
    traffic.add_argument("--json", action="store_true",
                         help="print the full report as JSON")
    traffic.set_defaults(handler=_cmd_traffic)

    cache = subparsers.add_parser(
        "cache",
        help="sketch-guided cache admission (repro.cache): race W-TinyLFU "
             "against LRU/LFU baselines on seeded synthetic traces",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_simulate = cache_sub.add_parser(
        "simulate",
        help="replay a seeded trace against one or more cache policies "
             "and report hit ratios",
    )
    cache_simulate.add_argument(
        "--policy", action="append", default=[],
        choices=("lru", "lfu", "tinylfu"),
        help="policy to simulate (repeatable; default: all three)",
    )
    cache_simulate.add_argument(
        "--capacity", action="append", type=int, default=[],
        metavar="N",
        help="cache capacity in keys (repeatable; default 1000)",
    )
    cache_simulate.add_argument(
        "--trace", choices=("zipf", "shifting"), default="zipf",
        help="trace family: i.i.d. Zipf draws, or Zipf with the hot set "
             "re-permuted every phase (default zipf)",
    )
    cache_simulate.add_argument("--requests", type=int, default=100_000,
                                help="trace length (default 100000)")
    cache_simulate.add_argument("--keys", type=int, default=50_000,
                                help="distinct keys m (default 50000)")
    cache_simulate.add_argument("--zipf", type=float, default=1.1,
                                help="Zipf parameter z (default 1.1)")
    cache_simulate.add_argument("--phases", type=int, default=5,
                                help="hot-set rotations for --trace "
                                     "shifting (default 5)")
    cache_simulate.add_argument("--seed", type=int, default=0,
                                help="trace and policy seed (default 0)")
    cache_simulate.add_argument(
        "--save-sketch", metavar="PATH", default=None,
        help="snapshot the TinyLFU admission sketch to PATH (.rcs) after "
             "the run (requires tinylfu and exactly one --capacity)",
    )
    cache_simulate.add_argument(
        "--load-sketch", metavar="PATH", default=None,
        help="warm-start TinyLFU from a saved admission sketch instead "
             "of an empty one",
    )
    cache_simulate.set_defaults(handler=_cmd_cache_simulate)

    cache_stats = cache_sub.add_parser(
        "stats",
        help="inspect a saved admission-sketch snapshot; optionally "
             "score items against it",
    )
    cache_stats.add_argument("--sketch", required=True, metavar="PATH",
                             help="admission-sketch snapshot (.rcs) "
                                  "written by simulate --save-sketch")
    cache_stats.add_argument("items", nargs="*",
                             help="items to score (optional)")
    cache_stats.add_argument("--int-keys", action="store_true",
                             help="parse items as integers")
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo's AST + dataflow rule suite (RS001-RS012); "
             "exits 0 clean, 1 findings, 2 on a syntax error or bad "
             "--select/--ignore/--baseline argument",
    )
    lint.add_argument("paths", nargs="*", default=[],
                      help="files or directories to lint "
                           "(default: src tests)")
    lint.add_argument("--format", choices=("human", "json"),
                      default="human",
                      help="output format (default: human)")
    lint.add_argument("--select", metavar="RULES", default=None,
                      help="only report these rules; comma-separated "
                           "codes and ranges (e.g. RS009-RS012)")
    lint.add_argument("--ignore", metavar="RULES", default=None,
                      help="drop these rules; same syntax as --select")
    lint.add_argument("--baseline", metavar="FILE", default=None,
                      help="allowlist of known findings — the "
                           "--format json output of a previous run")
    lint.add_argument("--include-fixtures", action="store_true",
                      help="also lint files under fixtures/ directories")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_with_metrics(args, args.handler)
    except (StoreError, OSError, StreamFormatError) as error:
        return _fail(str(error))


if __name__ == "__main__":
    sys.exit(main())
