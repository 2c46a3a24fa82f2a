"""Save/load any summary type to the versioned snapshot format.

One pair of entry points — :func:`save` and :func:`load` — covers all
five summary types (:class:`~repro.core.countsketch.CountSketch`,
:class:`~repro.core.sparse.SparseCountSketch`,
:class:`~repro.core.vectorized.VectorizedCountSketch`,
:class:`~repro.core.topk.TopKTracker`, and
:class:`~repro.core.windowed.JumpingWindowSketch`).  The codec consumes
only each class's public ``state_dict`` / ``from_state_dict`` contract —
private sketch state never crosses the module boundary, so the core
invariants (and the RS002/RS004 lint rules that guard them) hold.

Round-trips are exact: counters travel as raw little-endian ``int64``
blocks, heap entries keep their internal array order, and every
structural field rides in the JSON header.  ``load(save(s)) == s`` down
to tie-breaking in top-``k`` output.

Snapshots may carry a caller-supplied ``meta`` mapping (JSON-compatible)
— the checkpoint layer stores stream positions there — retrievable
without deserializing the summary via :func:`inspect`.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.core.windowed import JumpingWindowSketch
from repro.observability.registry import MetricsRegistry, get_registry
from repro.store.format import (
    FORMAT_VERSION,
    TYPE_CODES,
    TYPE_NAMES,
    SnapshotFormatError,
    atomic_write_bytes,
    decode_frame,
    decode_item,
    encode_frame,
    encode_item,
)

__all__ = [
    "Snapshotable",
    "dumps",
    "inspect",
    "load",
    "load_with_meta",
    "loads",
    "save",
]

#: The union of summary types the codec understands (``CountSketch``
#: covers its multiply-shift subclass, ``VectorizedCountSketch``).
Snapshotable = CountSketch | SparseCountSketch | TopKTracker | JumpingWindowSketch

_INT64 = np.dtype("<i8")


class _CodecMetrics:
    """Metric handles captured per codec operation when collection is on."""

    __slots__ = ("saves", "loads", "bytes_written", "bytes_read")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.saves = registry.counter("store_snapshot_saves_total")
        self.loads = registry.counter("store_snapshot_loads_total")
        self.bytes_written = registry.counter("store_bytes_written_total")
        self.bytes_read = registry.counter("store_bytes_read_total")


def _counters_payload(counters: np.ndarray) -> bytes:
    """Counter block as raw C-order little-endian int64 bytes."""
    return np.ascontiguousarray(counters, dtype=_INT64).tobytes()


def _counters_from(payload: bytes, offset: int, depth: int,
                   width: int) -> tuple[np.ndarray, int]:
    """Read one ``depth × width`` int64 block from ``payload``.

    Returns the array and the offset just past it.  The frame CRC has
    already vouched for the bytes; this only checks the length budget.
    """
    size = depth * width * _INT64.itemsize
    end = offset + size
    if end > len(payload):
        raise SnapshotFormatError(
            "payload too short for the declared counter dimensions"
        )
    block = np.frombuffer(payload, dtype=_INT64, count=depth * width,
                          offset=offset)
    return block.reshape(depth, width).astype(np.int64, copy=True), end


def _require_fields(header: dict[str, Any], *names: str) -> None:
    missing = [name for name in names if name not in header]
    if missing:
        raise SnapshotFormatError(
            f"snapshot header is missing field(s): {', '.join(missing)}"
        )


# -- per-type encoders --------------------------------------------------------

def _encode_linear(sketch: CountSketch) -> tuple[int, dict[str, Any], bytes]:
    """Both Count Sketch families: the header is the state minus the
    counters, which is all the dimensions, seed, weight and family
    fields the class's ``state_dict`` records."""
    header = sketch.state_dict()
    counters = header.pop("counters")
    kind = "vectorized" if isinstance(sketch, VectorizedCountSketch) else "dense"
    return TYPE_CODES[kind], header, _counters_payload(counters)


def _linear_decoder(
    sketch_type: type[CountSketch], *family_fields: str
) -> Callable[[dict[str, Any], bytes], CountSketch]:
    def decode(header: dict[str, Any], payload: bytes) -> CountSketch:
        _require_fields(header, "depth", "width", "seed", "total_weight",
                        *family_fields)
        counters, end = _counters_from(
            payload, 0, header["depth"], header["width"]
        )
        _expect_consumed(payload, end)
        return sketch_type.from_state_dict({**header, "counters": counters})

    return decode


def _encode_sparse(
    sketch: SparseCountSketch,
) -> tuple[int, dict[str, Any], bytes]:
    state = sketch.state_dict()
    row_lengths = []
    blocks = []
    for row in state["rows"]:
        buckets = sorted(row)  # canonical order -> deterministic bytes
        row_lengths.append(len(buckets))
        blocks.append(np.asarray(buckets, dtype=_INT64).tobytes())
        blocks.append(
            np.asarray([row[b] for b in buckets], dtype=_INT64).tobytes()
        )
    header = {
        "depth": state["depth"],
        "width": state["width"],
        "seed": state["seed"],
        "total_weight": state["total_weight"],
        "row_lengths": row_lengths,
    }
    return TYPE_CODES["sparse"], header, b"".join(blocks)


def _decode_sparse(
    header: dict[str, Any], payload: bytes
) -> SparseCountSketch:
    _require_fields(
        header, "depth", "width", "seed", "total_weight", "row_lengths"
    )
    row_lengths = header["row_lengths"]
    if len(row_lengths) != header["depth"]:
        raise SnapshotFormatError(
            "row_lengths must list one length per sketch row"
        )
    rows: list[dict[int, int]] = []
    offset = 0
    for length in row_lengths:
        if not isinstance(length, int) or length < 0:
            raise SnapshotFormatError("row lengths must be nonnegative ints")
        size = length * _INT64.itemsize
        if offset + 2 * size > len(payload):
            raise SnapshotFormatError(
                "payload too short for the declared sparse row lengths"
            )
        buckets = np.frombuffer(payload, dtype=_INT64, count=length,
                                offset=offset)
        offset += size
        values = np.frombuffer(payload, dtype=_INT64, count=length,
                               offset=offset)
        offset += size
        rows.append(
            {int(b): int(v) for b, v in zip(buckets, values, strict=True)}
        )
    _expect_consumed(payload, offset)
    return SparseCountSketch.from_state_dict(
        {
            "depth": header["depth"],
            "width": header["width"],
            "seed": header["seed"],
            "total_weight": header["total_weight"],
            "rows": rows,
        }
    )


def _encode_topk(tracker: TopKTracker) -> tuple[int, dict[str, Any], bytes]:
    """The nested sketch's header is its state minus the counters, as
    :func:`_encode_linear` writes it, so either hash family's fields
    travel and :meth:`TopKTracker.from_state_dict` picks the class."""
    state = tracker.state_dict()
    sketch_header = state["sketch"]
    counters = sketch_header.pop("counters")
    header = {
        "k": state["k"],
        "exact_heap_counts": state["exact_heap_counts"],
        "items_processed": state["items_processed"],
        "heap": [
            [encode_item(item), priority]
            for item, priority in state["heap"]
        ],
        "sketch": sketch_header,
    }
    return TYPE_CODES["topk"], header, _counters_payload(counters)


def _decode_topk(header: dict[str, Any], payload: bytes) -> TopKTracker:
    _require_fields(
        header, "k", "exact_heap_counts", "items_processed", "heap", "sketch"
    )
    sketch_header = header["sketch"]
    if not isinstance(sketch_header, dict):
        raise SnapshotFormatError("topk sketch header must be an object")
    _require_fields(sketch_header, "depth", "width", "seed", "total_weight")
    if "bucket_coefficients" in sketch_header:
        _require_fields(sketch_header, "sign_coefficients")
    counters, end = _counters_from(
        payload, 0, sketch_header["depth"], sketch_header["width"]
    )
    _expect_consumed(payload, end)
    heap_entries = header["heap"]
    if not isinstance(heap_entries, list) or any(
        not isinstance(entry, list) or len(entry) != 2
        for entry in heap_entries
    ):
        raise SnapshotFormatError(
            "topk heap must be a list of [item, priority] pairs"
        )
    return TopKTracker.from_state_dict(
        {
            "k": header["k"],
            "exact_heap_counts": header["exact_heap_counts"],
            "items_processed": header["items_processed"],
            "heap": [
                (decode_item(item), priority)
                for item, priority in heap_entries
            ],
            "sketch": {**sketch_header, "counters": counters},
        }
    )


def _encode_window(
    window: JumpingWindowSketch,
) -> tuple[int, dict[str, Any], bytes]:
    state = window.state_dict()
    header = {
        "window": state["window"],
        "buckets": state["buckets"],
        "depth": state["depth"],
        "width": state["width"],
        "seed": state["seed"],
        "current_fill": state["current_fill"],
        "items_seen": state["items_seen"],
        "aggregate_weight": state["aggregate"]["total_weight"],
        "ring_weights": [sub["total_weight"] for sub in state["ring"]],
    }
    blocks = [_counters_payload(state["aggregate"]["counters"])]
    blocks.extend(_counters_payload(sub["counters"]) for sub in state["ring"])
    return TYPE_CODES["window"], header, b"".join(blocks)


def _decode_window(
    header: dict[str, Any], payload: bytes
) -> JumpingWindowSketch:
    _require_fields(
        header, "window", "buckets", "depth", "width", "seed",
        "current_fill", "items_seen", "aggregate_weight", "ring_weights",
    )
    depth, width = header["depth"], header["width"]
    aggregate_counters, offset = _counters_from(payload, 0, depth, width)
    ring = []
    for weight in header["ring_weights"]:
        counters, offset = _counters_from(payload, offset, depth, width)
        ring.append({"counters": counters, "total_weight": weight})
    _expect_consumed(payload, offset)
    return JumpingWindowSketch.from_state_dict(
        {
            "window": header["window"],
            "buckets": header["buckets"],
            "depth": depth,
            "width": width,
            "seed": header["seed"],
            "current_fill": header["current_fill"],
            "items_seen": header["items_seen"],
            "aggregate": {
                "counters": aggregate_counters,
                "total_weight": header["aggregate_weight"],
            },
            "ring": ring,
        }
    )


def _expect_consumed(payload: bytes, end: int) -> None:
    if end != len(payload):
        raise SnapshotFormatError(
            f"{len(payload) - end} unexpected byte(s) left in the payload"
        )


_ENCODERS = (
    (CountSketch, _encode_linear),  # and its VectorizedCountSketch
    (SparseCountSketch, _encode_sparse),
    (TopKTracker, _encode_topk),
    (JumpingWindowSketch, _encode_window),
)

_DECODERS = {
    TYPE_CODES["dense"]: _linear_decoder(
        CountSketch, "bucket_coefficients", "sign_coefficients"
    ),
    TYPE_CODES["sparse"]: _decode_sparse,
    TYPE_CODES["vectorized"]: _linear_decoder(VectorizedCountSketch),
    TYPE_CODES["topk"]: _decode_topk,
    TYPE_CODES["window"]: _decode_window,
}


# -- public API ---------------------------------------------------------------

def dumps(summary: Snapshotable, meta: dict[str, Any] | None = None) -> bytes:
    """Serialize ``summary`` to snapshot bytes (the frame, in memory).

    Args:
        summary: any of the five supported summary types.
        meta: optional JSON-compatible mapping stored alongside the
            summary (e.g. a checkpoint's stream position); retrievable
            via :func:`inspect` / :func:`load_with_meta`.

    Raises:
        TypeError: for unsupported summary types.
    """
    for summary_type, encoder in _ENCODERS:
        if isinstance(summary, summary_type):
            type_code, header, payload = encoder(summary)
            break
    else:
        raise TypeError(
            f"cannot snapshot {type(summary).__name__}: supported types are "
            + ", ".join(t.__name__ for t, __ in _ENCODERS)
        )
    if meta is not None:
        header["meta"] = dict(meta)
    return encode_frame(type_code, header, payload)


def loads(data: bytes) -> Snapshotable:
    """Deserialize snapshot bytes produced by :func:`dumps`."""
    summary, __ = _loads_with_header(data)
    return summary


def _loads_with_header(data: bytes) -> tuple[Snapshotable, dict[str, Any]]:
    type_code, header, payload = decode_frame(data)
    try:
        return _DECODERS[type_code](header, payload), header
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, SnapshotFormatError):
            raise
        raise SnapshotFormatError(
            f"snapshot rejected while rebuilding the summary: {error}"
        ) from error


def save(summary: Snapshotable, path: str | Path,
         meta: dict[str, Any] | None = None) -> int:
    """Write ``summary`` to ``path`` atomically; returns bytes written.

    The write is crash-safe (tmp file + fsync + rename): readers see the
    previous snapshot or the new one, never a torn file.
    """
    data = dumps(summary, meta=meta)
    written = atomic_write_bytes(path, data)
    registry = get_registry()
    if registry.enabled:
        metrics = _CodecMetrics(registry)
        metrics.saves.inc()
        metrics.bytes_written.inc(written)
    return written


def load(path: str | Path) -> Snapshotable:
    """Read back a summary written by :func:`save`.

    Raises:
        SnapshotFormatError: for corrupt, truncated, or non-snapshot
            files.
        UnsupportedVersionError: for snapshots from a newer format.
    """
    summary, __ = load_with_meta(path)
    return summary


def load_with_meta(
    path: str | Path,
) -> tuple[Snapshotable, dict[str, Any]]:
    """Like :func:`load` but also returns the snapshot's ``meta`` mapping
    (empty when the writer attached none)."""
    data = Path(path).read_bytes()
    summary, header = _loads_with_header(data)
    registry = get_registry()
    if registry.enabled:
        metrics = _CodecMetrics(registry)
        metrics.loads.inc()
        metrics.bytes_read.inc(len(data))
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise SnapshotFormatError("snapshot meta must be a JSON object")
    return summary, meta


def inspect(path: str | Path) -> dict[str, Any]:
    """Describe a snapshot without rebuilding the summary.

    Returns a dict with the stable type name, format version, file size,
    the structural header fields (dimensions, seed, weights — everything
    except bulk coefficient lists and heap contents), and the ``meta``
    mapping.  Cheap even for very wide sketches: the counter payload is
    CRC-checked but never converted to an array.
    """
    data = Path(path).read_bytes()
    type_code, header, payload = decode_frame(data)
    summarized = {
        key: value
        for key, value in header.items()
        if key not in (
            "bucket_coefficients", "sign_coefficients", "heap", "meta",
        )
    }
    if "sketch" in summarized and isinstance(summarized["sketch"], dict):
        summarized["sketch"] = {
            key: value
            for key, value in summarized["sketch"].items()
            if key not in ("bucket_coefficients", "sign_coefficients")
        }
    if "heap" in header:
        summarized["heap_size"] = len(header["heap"])
    return {
        "type": TYPE_NAMES[type_code],
        "format_version": FORMAT_VERSION,
        "file_bytes": len(data),
        "payload_bytes": len(payload),
        "header": summarized,
        "meta": header.get("meta", {}),
    }
