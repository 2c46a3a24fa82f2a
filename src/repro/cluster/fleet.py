"""Fleet management: shard processes, pinned manifests, rebalancing.

A cluster deployment is N independent ``repro serve`` processes plus a
*cluster spec* — a small JSON file recording the shard endpoints in
routing order, which is all :meth:`~repro.cluster.coordinator.
ClusterCoordinator.connect` needs to attach.  This module owns that file, the
subprocess supervisor behind ``repro cluster serve``, and the offline
snapshot-re-merge behind ``repro cluster rebalance``.

Durability layout (``--checkpoint-dir ROOT``)::

    ROOT/
        manifest.json      # ShardCheckpointStore manifest: pins the
                           # fleet size and every table spec
        shard-000/         # shard 0's own service checkpoint dir
            service.json   #   (service manifest + one .rcs per table)
            flows.rcs
        shard-001/
            ...

The root manifest reuses :class:`~repro.store.ShardCheckpointStore`'s
pin-or-verify posture: a resume with a different shard count (or
different table specs) is refused loudly — silently resuming N
snapshots into an M-shard fleet would route keys to shards holding the
wrong counters.  Changing the fleet size is an explicit *rebalance*:
the §3.2 compatibility-checked merge collapses every shard's snapshot
into one exact sketch (empty shards contribute zero counters — the sum
is unchanged), which seeds the new layout.  Answers before and after a
rebalance are bit-equal, because the global counter sums are.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.countsketch import CountSketch
from repro.service.tables import TableSpec
from repro.store.checkpoint import (
    CheckpointMismatchError,
    ShardCheckpointStore,
)
from repro.store.codec import load_with_meta, save
from repro.store.format import StoreError, atomic_write_bytes

if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    from repro.store.codec import Snapshotable

__all__ = [
    "ClusterSpecFile",
    "MERGEABLE_KINDS",
    "ShardProcess",
    "fleet_status",
    "launch_fleet",
    "merge_shard_summaries",
    "pin_cluster_manifest",
    "read_cluster_spec",
    "rebalance_cluster",
    "shard_directory",
    "stop_fleet",
    "write_cluster_spec",
]

_SPEC_VERSION = 1

#: Kinds whose shard snapshots merge exactly (§3.2 linearity).  ``topk``
#: heap state and ``window`` rotation are insert-ordered, not linear, so
#: their tables cannot be collapsed by snapshot re-merge.
MERGEABLE_KINDS = ("sketch", "vectorized")


class ClusterSpecFile:
    """A parsed cluster spec: shard endpoints plus pinned table specs."""

    __slots__ = ("endpoints", "tables")

    def __init__(self, endpoints: list[tuple[str, int]],
                 tables: list[TableSpec]) -> None:
        self.endpoints = endpoints
        self.tables = tables

    @property
    def n_shards(self) -> int:
        """The fleet size."""
        return len(self.endpoints)

    def __repr__(self) -> str:
        return (
            f"ClusterSpecFile(n_shards={self.n_shards}, "
            f"tables={[spec.name for spec in self.tables]})"
        )


def write_cluster_spec(
    path: str | Path,
    endpoints: Sequence[tuple[str, int]],
    specs: Sequence[TableSpec],
) -> None:
    """Atomically write the cluster spec JSON a coordinator attaches by."""
    payload = {
        "version": _SPEC_VERSION,
        "n_shards": len(endpoints),
        "shards": [
            {"host": host, "port": port} for host, port in endpoints
        ],
        "tables": [spec.to_dict() for spec in specs],
    }
    atomic_write_bytes(
        Path(path),
        json.dumps(payload, sort_keys=True, indent=2).encode("utf-8"),
    )


def read_cluster_spec(path: str | Path) -> ClusterSpecFile:
    """Parse a cluster spec file written by :func:`write_cluster_spec`.

    Raises:
        StoreError: when the file is missing, malformed, or has a
            version this build does not understand.
    """
    spec_path = Path(path)
    if not spec_path.exists():
        raise StoreError(
            f"cluster spec {spec_path} does not exist; start a fleet "
            "with `repro cluster serve` first"
        )
    try:
        payload = json.loads(spec_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise StoreError(
            f"{spec_path} is not a valid cluster spec: {error}"
        ) from error
    if (
        not isinstance(payload, dict)
        or payload.get("version") != _SPEC_VERSION
        or not isinstance(payload.get("shards"), list)
        or not payload["shards"]
    ):
        raise StoreError(
            f"{spec_path} is not a version-{_SPEC_VERSION} cluster spec "
            "with at least one shard"
        )
    endpoints: list[tuple[str, int]] = []
    for entry in payload["shards"]:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("host"), str)
            or not isinstance(entry.get("port"), int)
        ):
            raise StoreError(
                f"{spec_path} shard entries need 'host' and 'port'")
        endpoints.append((entry["host"], entry["port"]))
    tables = []
    for payload_spec in payload.get("tables", []):
        try:
            tables.append(TableSpec.from_dict(payload_spec))
        except (ValueError, TypeError) as error:
            raise StoreError(
                f"{spec_path} pins an invalid table spec: {error}"
            ) from error
    return ClusterSpecFile(endpoints, tables)


# -- durability ------------------------------------------------------------


def shard_directory(root: str | Path, index: int) -> Path:
    """Shard ``index``'s service checkpoint directory under ``root``."""
    if index < 0:
        raise ValueError("shard index cannot be negative")
    return Path(root) / f"shard-{index:03d}"


def pin_cluster_manifest(
    root: str | Path,
    *,
    n_shards: int,
    specs: Sequence[TableSpec],
) -> ShardCheckpointStore:
    """Pin (or verify) the fleet shape in ``root``'s manifest.

    Reuses :meth:`ShardCheckpointStore.ensure_manifest`, with a
    dedicated shard-count precheck so the most operationally likely
    drift — resuming with a different ``--shards`` — gets an error that
    says exactly how to proceed instead of a generic parameter list.

    Raises:
        CheckpointMismatchError: when ``root`` was written by a fleet
            of a different size or with different table specs.
    """
    store = ShardCheckpointStore(root)
    existing = store.read_manifest()
    if existing is not None:
        recorded = existing.get("n_shards")
        if recorded != n_shards:
            raise CheckpointMismatchError(
                f"cluster checkpoint {Path(root)} was written by a "
                f"{recorded}-shard fleet, but this run wants {n_shards} "
                f"shards; resume with --shards {recorded}, or change the "
                "fleet size explicitly with `repro cluster rebalance` "
                "(snapshots re-merge exactly by §3.2 linearity)"
            )
    store.ensure_manifest({
        "kind": "cluster",
        "version": _SPEC_VERSION,
        "n_shards": n_shards,
        "tables": [
            spec.to_dict() for spec in sorted(specs, key=lambda s: s.name)
        ],
    })
    return store


def merge_shard_summaries(
    spec: TableSpec, summaries: Iterable[Snapshotable]
) -> Snapshotable:
    """Collapse shard summaries into one, via the compat-checked merge.

    Degenerate cases are exact by construction: zero summaries yield the
    spec's empty summary (all-zero counters), one summary merges onto
    zeros unchanged, and never-updated shards contribute nothing to the
    sums.

    Raises:
        StoreError: for non-linear kinds, or when a summary does not
            match ``spec`` (the §3.2 compatibility check then never
            runs on mismatched types).
    """
    if spec.kind not in MERGEABLE_KINDS:
        raise StoreError(
            f"table {spec.name!r} is {spec.kind!r}: its state is "
            "insert-ordered, not linear, so shard snapshots cannot be "
            "re-merged; only " + " and ".join(MERGEABLE_KINDS) +
            " tables can be rebalanced"
        )
    merged = spec.build()
    for summary in summaries:
        if not spec.matches_summary(summary):
            raise StoreError(
                f"shard snapshot for table {spec.name!r} holds a "
                f"{type(summary).__name__}, expected the spec's "
                f"{spec.kind!r} summary"
            )
        if isinstance(merged, CountSketch) and isinstance(
                summary, CountSketch):
            merged.merge(summary)
    return merged


def rebalance_cluster(
    src_root: str | Path,
    dst_root: str | Path,
    n_shards: int,
) -> dict[str, int]:
    """Re-shape a cluster checkpoint root to a new fleet size, offline.

    Every table's shard snapshots are loaded (missing files mean the
    shard never checkpointed that table — an empty sketch), merged
    through the §3.2 compatibility-checked merge, and written as shard
    0 of the new layout; the remaining shards start empty.  Global
    counter sums are preserved exactly, so cluster answers before and
    after the rebalance are bit-equal.  The new fleet then refills
    shards organically as routed ingest arrives.

    Args:
        src_root: existing cluster checkpoint root (with a manifest).
        dst_root: destination root; must not already hold a manifest.
        n_shards: the new fleet size.

    Returns:
        Per-table count of source snapshots merged.

    Raises:
        StoreError: for a missing/invalid source manifest, an occupied
            destination, or non-linear table kinds.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    src = Path(src_root)
    dst = Path(dst_root)
    src_store = ShardCheckpointStore(src)
    manifest = src_store.read_manifest()
    if manifest is None:
        raise StoreError(
            f"{src} has no cluster manifest; nothing to rebalance"
        )
    old_n = manifest.get("n_shards")
    if not isinstance(old_n, int) or old_n < 1:
        raise StoreError(f"{src} manifest lacks a valid n_shards count")
    specs = [TableSpec.from_dict(payload)
             for payload in manifest.get("tables", [])]
    if ShardCheckpointStore(dst).read_manifest() is not None:
        raise StoreError(
            f"destination {dst} already holds a cluster manifest; "
            "rebalance into a fresh directory"
        )
    merged_counts: dict[str, int] = {}
    for spec in specs:
        if spec.kind not in MERGEABLE_KINDS:
            raise StoreError(
                f"table {spec.name!r} is {spec.kind!r} and cannot be "
                "rebalanced by snapshot re-merge; drop it or re-ingest "
                "its stream into the new fleet"
            )
        summaries: list[Snapshotable] = []
        total_items = 0
        for index in range(old_n):
            path = shard_directory(src, index) / f"{spec.name}.rcs"
            if not path.exists():
                continue  # never-checkpointed shard: an empty sketch
            summary, meta = load_with_meta(path)
            consumed = meta.get("items_consumed", 0)
            total_items += consumed if isinstance(consumed, int) else 0
            summaries.append(summary)
        merged = merge_shard_summaries(spec, summaries)
        target = shard_directory(dst, 0) / f"{spec.name}.rcs"
        target.parent.mkdir(parents=True, exist_ok=True)
        save(merged, target, meta={"items_consumed": total_items})
        merged_counts[spec.name] = len(summaries)
    for index in range(n_shards):
        shard_directory(dst, index).mkdir(parents=True, exist_ok=True)
    pin_cluster_manifest(dst, n_shards=n_shards, specs=specs)
    return merged_counts


# -- process supervision ---------------------------------------------------


class ShardProcess:
    """One spawned ``repro serve`` shard and its bound endpoint."""

    __slots__ = ("index", "process", "host", "port")

    def __init__(self, index: int, process: subprocess.Popen[str],
                 host: str, port: int) -> None:
        self.index = index
        self.process = process
        self.host = host
        self.port = port

    def __repr__(self) -> str:
        return (
            f"ShardProcess(index={self.index}, "
            f"endpoint={self.host}:{self.port}, "
            f"pid={self.process.pid})"
        )


def _shard_command(
    specs: Sequence[TableSpec],
    host: str,
    checkpoint_dir: Path | None,
    serve_args: Sequence[str],
) -> list[str]:
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--host", host, "--port", "0"]
    for spec in specs:
        options = ",".join(
            f"{key}={value}"
            for key, value in sorted(spec.to_dict().items())
            if key not in ("name", "kind")
        )
        command.extend(["--table", f"{spec.name}:{spec.kind}:{options}"])
    if checkpoint_dir is not None:
        command.extend(["--checkpoint-dir", str(checkpoint_dir)])
    command.extend(serve_args)
    return command


def _await_serving_line(shard: subprocess.Popen[str], index: int) -> tuple[str, int]:
    assert shard.stdout is not None
    while True:
        line = shard.stdout.readline()
        if not line:
            shard.wait()
            raise StoreError(
                f"shard {index} exited with code {shard.returncode} "
                "before binding its port"
            )
        if line.startswith("serving on "):
            endpoint = line[len("serving on "):].strip()
            host, _, port = endpoint.rpartition(":")
            return host, int(port)


def launch_fleet(
    n_shards: int,
    specs: Sequence[TableSpec],
    *,
    host: str = "127.0.0.1",
    checkpoint_root: str | Path | None = None,
    serve_args: Sequence[str] = (),
    env: dict[str, str] | None = None,
) -> list[ShardProcess]:
    """Spawn ``n_shards`` shard server subprocesses, each on a free port.

    Every shard runs ``repro serve --port 0`` with the same table specs;
    with a ``checkpoint_root`` the fleet shape is pinned in the root
    manifest first (refusing a shard-count change — see
    :func:`pin_cluster_manifest`) and shard ``i`` persists under
    ``ROOT/shard-00i``.  Shards that fail to bind abort the whole
    launch, terminating any already-started siblings.

    Returns the running shards in routing order.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if checkpoint_root is not None:
        pin_cluster_manifest(checkpoint_root,
                             n_shards=n_shards, specs=specs)
    if env is None:
        # Shards import repro.cli; make sure this build's package root
        # is importable even when the parent was launched via PYTHONPATH.
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing_path = env.get("PYTHONPATH", "")
        if package_root not in existing_path.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + os.pathsep + existing_path
                if existing_path else package_root
            )
    shards: list[ShardProcess] = []
    try:
        for index in range(n_shards):
            checkpoint_dir = (
                shard_directory(checkpoint_root, index)
                if checkpoint_root is not None else None
            )
            process = subprocess.Popen(
                _shard_command(specs, host, checkpoint_dir, serve_args),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            try:
                bound_host, bound_port = _await_serving_line(process, index)
            except BaseException:
                # Not yet in ``shards``, so the outer cleanup cannot see
                # this shard: kill and reap it here or the subprocess
                # (and its stdout pipe) outlives the failed launch.
                process.kill()
                process.wait()
                if process.stdout is not None:
                    process.stdout.close()
                raise
            shards.append(
                ShardProcess(index, process, bound_host, bound_port))
    except BaseException:
        stop_fleet(shards, timeout=5.0)
        raise
    return shards


def stop_fleet(
    shards: Sequence[ShardProcess], *, timeout: float = 30.0
) -> list[int]:
    """SIGTERM every shard (graceful drain + snapshot) and reap them.

    Shards still alive after ``timeout`` seconds are killed.  Returns
    the exit codes in routing order.
    """
    for shard in shards:
        if shard.process.poll() is None:
            shard.process.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + timeout
    codes: list[int] = []
    for shard in shards:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            shard.process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            shard.process.kill()
            shard.process.wait()
        if shard.process.stdout is not None:
            shard.process.stdout.close()
        codes.append(int(shard.process.returncode or 0))
    return codes


def fleet_status(shards: Sequence[ShardProcess]) -> list[dict[str, Any]]:
    """A plain-dict snapshot of the fleet (for logs and the CLI)."""
    return [
        {
            "index": shard.index,
            "host": shard.host,
            "port": shard.port,
            "pid": shard.process.pid,
            "alive": shard.process.poll() is None,
        }
        for shard in shards
    ]
