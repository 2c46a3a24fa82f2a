"""A sparse-backed Count Sketch for over-provisioned widths.

Lemma 5 widths can be enormous (E4 runs ``b ≈ 1.3·10⁵`` at ε = 0.25), yet
a stream with ``m`` distinct items touches at most ``m`` buckets per row.
This backend stores each row as a dict of touched buckets instead of a
dense array: memory is ``O(t · min(m, b))`` while estimates are
*bit-for-bit identical* to the dense :class:`~repro.core.countsketch.
CountSketch` built with the same ``(depth, width, seed)`` — both use the
same default hash families, and :meth:`to_dense` / equality against a
dense sketch are tested to agree exactly.

Use the dense sketch when ``m`` approaches ``b`` (arrays win on constant
factors); use this one when the analysis demands a wide ``b`` but the
stream's support is small.
"""

from __future__ import annotations

import statistics
from collections.abc import Hashable, Iterable, Mapping
from typing import Any

from repro.core.countsketch import CountSketch, integral_count
from repro.hashing.bucket import BucketHashFamily
from repro.hashing.encode import encode_key
from repro.hashing.mersenne import KWiseFamily
from repro.hashing.sign import SignHashFamily
from repro.observability.registry import MetricsRegistry, get_registry


class _SparseMetrics:
    """Metric handles captured once per sparse sketch when collection is on."""

    __slots__ = ("updates", "estimates")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.updates = registry.counter("sparse_countsketch_updates_total")
        self.estimates = registry.counter(
            "sparse_countsketch_estimates_total"
        )


class SparseCountSketch:
    """A Count Sketch whose rows are dicts of touched buckets.

    Args:
        depth: number of rows ``t``.
        width: nominal counters per row ``b`` (hash range; not allocated).
        seed: hash seed — identical to the dense sketch's derivation, so
            equal ``(depth, width, seed)`` means identical estimates.
    """

    def __init__(self, depth: int, width: int, seed: int = 0) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if width < 1:
            raise ValueError("width must be at least 1")
        self._depth = depth
        self._width = width
        self._seed = seed
        bucket_family = BucketHashFamily(
            KWiseFamily(independence=2, seed=seed, salt="buckets"), width
        )
        sign_family = SignHashFamily(
            KWiseFamily(independence=2, seed=seed, salt="signs")
        )
        self._bucket_hashes = tuple(bucket_family.draw(depth))
        self._sign_hashes = tuple(sign_family.draw(depth))
        self._rows: list[dict[int, int]] = [{} for __ in range(depth)]
        self._total_weight = 0
        registry = get_registry()
        self._metrics = _SparseMetrics(registry) if registry.enabled else None

    @property
    def depth(self) -> int:
        """Number of rows ``t``."""
        return self._depth

    @property
    def width(self) -> int:
        """Nominal width ``b`` (the hash range)."""
        return self._width

    @property
    def seed(self) -> int:
        """The hash seed."""
        return self._seed

    @property
    def total_weight(self) -> int:
        """Net weight of all updates applied."""
        return self._total_weight

    def update(self, item: Hashable, count: int = 1) -> None:
        """Apply ``ADD`` with weight ``count`` (may be negative).

        Raises:
            ValueError: if ``count`` is not integral (see
                :func:`~repro.core.countsketch.integral_count`); the sketch
                is left unchanged.
        """
        if type(count) is not int:
            count = integral_count(count)
        key = encode_key(item)
        for row_index in range(self._depth):
            bucket = self._bucket_hashes[row_index](key)
            delta = self._sign_hashes[row_index](key) * count
            row = self._rows[row_index]
            value = row.get(bucket, 0) + delta
            if value:
                row[bucket] = value
            else:
                row.pop(bucket, None)  # keep the representation minimal
        self._total_weight += count
        if self._metrics is not None:
            self._metrics.updates.inc()

    def update_counts(self, counts: Mapping[Hashable, int]) -> None:
        """Apply a batch of weighted updates, one per distinct item."""
        for item, count in counts.items():
            self.update(item, count)

    def extend(self, stream: Iterable[Hashable]) -> None:
        """Apply ``ADD`` for each item of ``stream``."""
        for item in stream:
            self.update(item)

    def row_estimates(self, item: Hashable) -> list[float]:
        """The ``depth`` individual per-row estimates for ``item``."""
        key = encode_key(item)
        return [
            float(self._rows[i].get(self._bucket_hashes[i](key), 0))
            * self._sign_hashes[i](key)
            for i in range(self._depth)
        ]

    def estimate(self, item: Hashable) -> float:
        """``ESTIMATE``: the median of per-row signed bucket values."""
        if self._metrics is not None:
            self._metrics.estimates.inc()
        return statistics.median(self.row_estimates(item))

    def estimate_f2(self) -> float:
        """AMS-style second-moment estimate (median of row sums of squares).

        Matches the dense sketch's :meth:`~repro.core.countsketch.
        CountSketch.estimate_f2` exactly, so the observable error
        envelopes in :mod:`repro.analysis.confidence` work unchanged.
        """
        row_sums = [
            float(sum(value * value for value in row.values()))
            for row in self._rows
        ]
        return statistics.median(row_sums)

    # -- linearity -------------------------------------------------------------

    def compatible_with(self, other: SparseCountSketch) -> bool:
        """True iff sketch arithmetic with ``other`` is meaningful."""
        return (
            isinstance(other, SparseCountSketch)
            and self._depth == other._depth
            and self._width == other._width
            and self._bucket_hashes == other._bucket_hashes
            and self._sign_hashes == other._sign_hashes
        )

    def merge(self, other: SparseCountSketch) -> None:
        """In-place ``+=`` of a compatible sparse sketch."""
        if not isinstance(other, SparseCountSketch):
            raise TypeError(
                f"expected SparseCountSketch, got {type(other).__name__}"
            )
        if not self.compatible_with(other):
            raise ValueError(
                "sketches are not compatible: build both with the same "
                "(depth, width, seed)"
            )
        for mine, theirs in zip(self._rows, other._rows, strict=True):
            for bucket, value in theirs.items():
                merged = mine.get(bucket, 0) + value
                if merged:
                    mine[bucket] = merged
                else:
                    mine.pop(bucket, None)
        self._total_weight += other._total_weight

    def __add__(self, other: SparseCountSketch) -> SparseCountSketch:
        result = SparseCountSketch(self._depth, self._width, seed=self._seed)
        result.merge(self)
        result.merge(other)
        return result

    def __sub__(self, other: SparseCountSketch) -> SparseCountSketch:
        if not isinstance(other, SparseCountSketch):
            raise TypeError(
                f"expected SparseCountSketch, got {type(other).__name__}"
            )
        if not self.compatible_with(other):
            raise ValueError("sketches are not compatible")
        result = SparseCountSketch(self._depth, self._width, seed=self._seed)
        result.merge(self)
        negated = SparseCountSketch(self._depth, self._width, seed=self._seed)
        negated._rows = [
            {bucket: -value for bucket, value in row.items()}
            for row in other._rows
        ]
        negated._total_weight = -other._total_weight
        result.merge(negated)
        return result

    # -- interop and accounting ---------------------------------------------------

    def to_dense(self) -> CountSketch:
        """Materialize as a dense :class:`~repro.core.countsketch.CountSketch`.

        The result compares equal to a dense sketch built with the same
        parameters and fed the same updates.
        """
        dense = CountSketch(self._depth, self._width, seed=self._seed)
        counters = dense._counters
        for row_index, row in enumerate(self._rows):
            for bucket, value in row.items():
                counters[row_index, bucket] = value
        dense._total_weight = self._total_weight
        return dense

    def buckets_touched(self) -> int:
        """Nonzero buckets across all rows — the sketch's actual memory."""
        return sum(len(row) for row in self._rows)

    def counters_used(self) -> int:
        """Actual counters held (touched buckets), not the nominal ``t·b``."""
        return self.buckets_touched()

    def nominal_counters(self) -> int:
        """The dense-equivalent counter count ``t·b``."""
        return self._depth * self._width

    def items_stored(self) -> int:
        """A bare sketch stores no stream objects."""
        return 0

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Serialize to a plain dict of touched buckets per row.

        The hash functions derive from ``seed``, so only the dimensions,
        seed, and the per-row ``{bucket: value}`` tables travel; the
        round-trip is exact (and stays sparse — untouched buckets are
        never materialized).
        """
        return {
            "depth": self._depth,
            "width": self._width,
            "seed": self._seed,
            "total_weight": self._total_weight,
            "rows": [dict(row) for row in self._rows],
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> SparseCountSketch:
        """Rebuild a sketch serialized by :meth:`state_dict`.

        Raises:
            ValueError: if the row count disagrees with ``depth``, a
                bucket index falls outside ``[0, width)``, a stored value
                is zero (the representation keeps only touched buckets),
                or a bucket/value is not an integer.
        """
        depth = state["depth"]
        width = state["width"]
        rows = state["rows"]
        if len(rows) != depth:
            raise ValueError(
                f"expected {depth} rows (one per hash row), got {len(rows)}"
            )
        cleaned: list[dict[int, int]] = []
        for row in rows:
            table: dict[int, int] = {}
            for bucket, value in row.items():
                bucket = int(bucket)  # JSON round-trips dict keys as str
                if not 0 <= bucket < width:
                    raise ValueError(
                        f"bucket index {bucket} outside [0, {width})"
                    )
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(
                        "counter values must be integral: the int64 "
                        "counter invariant rejects float counter data"
                    )
                value = int(value)
                if value == 0:
                    raise ValueError(
                        "zero-valued buckets must be absent from a sparse "
                        "row (the representation keeps touched buckets "
                        "only)"
                    )
                table[bucket] = value
            cleaned.append(table)
        sketch = cls(depth, width, seed=state["seed"])
        sketch._rows = cleaned
        sketch._total_weight = state["total_weight"]
        return sketch

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseCountSketch):
            return self.compatible_with(other) and self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - mutable, not hashable
        raise TypeError("SparseCountSketch is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"SparseCountSketch(depth={self._depth}, width={self._width}, "
            f"seed={self._seed}, touched={self.buckets_touched()})"
        )
